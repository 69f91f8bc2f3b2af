// Package sim implements bit-parallel (64 patterns per machine word)
// combinational logic simulation of scan designs under launch-on-capture
// (LOC) at-speed test, the timing model under which transition delay faults
// (TDFs) are tested and diagnosed.
//
// A LOC pattern is a scan-loaded flop state plus static primary-input
// values. The launch cycle evaluates the combinational logic on that state
// (vector V1) and clocks the results back into the flops; the capture cycle
// evaluates the logic again on the launched state (vector V2). A node
// "has a transition" under a pattern when its V1 and V2 values differ —
// the condition for a TDF at that node to be activated — and the tester
// observes the V2 values at primary outputs and flop data pins.
package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/netlist"
)

// PatternSet holds N LOC patterns in bit-parallel form: bit k of word w
// holds pattern 64*w+k. PI is indexed by position in the netlist's PIs
// slice, FF by position in its FFs slice.
type PatternSet struct {
	N  int
	PI [][]uint64
	FF [][]uint64
}

// Words returns the number of 64-bit words per signal.
func (p *PatternSet) Words() int { return (p.N + 63) / 64 }

// NewPatternSet allocates an all-zero pattern set for the netlist.
func NewPatternSet(n *netlist.Netlist, patterns int) *PatternSet {
	w := (patterns + 63) / 64
	ps := &PatternSet{N: patterns}
	ps.PI = make([][]uint64, len(n.PIs))
	for i := range ps.PI {
		ps.PI[i] = make([]uint64, w)
	}
	ps.FF = make([][]uint64, len(n.FFs))
	for i := range ps.FF {
		ps.FF[i] = make([]uint64, w)
	}
	return ps
}

// RandomPatterns returns patterns filled from the seeded generator.
// Tail bits beyond N in the last word are left zero.
func RandomPatterns(n *netlist.Netlist, patterns int, seed int64) *PatternSet {
	rng := rand.New(rand.NewSource(seed))
	ps := NewPatternSet(n, patterns)
	mask := TailMask(patterns)
	fill := func(sig [][]uint64) {
		for i := range sig {
			for w := range sig[i] {
				sig[i][w] = rng.Uint64()
			}
			if len(sig[i]) > 0 {
				sig[i][len(sig[i])-1] &= mask
			}
		}
	}
	fill(ps.PI)
	fill(ps.FF)
	return ps
}

// Append adds the patterns of other to p (both must target the same design).
func (p *PatternSet) Append(other *PatternSet) *PatternSet {
	out := &PatternSet{N: p.N + other.N}
	out.PI = appendBits(p.PI, other.PI, p.N, other.N)
	out.FF = appendBits(p.FF, other.FF, p.N, other.N)
	return out
}

func appendBits(a, b [][]uint64, an, bn int) [][]uint64 {
	out := make([][]uint64, len(a))
	words := (an + bn + 63) / 64
	aligned := an%64 == 0
	aw := (an + 63) / 64
	for i := range a {
		out[i] = make([]uint64, words)
		if aligned {
			copy(out[i], a[i][:aw])
			copy(out[i][aw:], b[i])
			continue
		}
		copy(out[i], a[i])
		if an > 0 {
			out[i][aw-1] &= TailMask(an) // clear stale tail bits
		}
		for k := 0; k < bn; k++ {
			j := an + k
			if b[i][k/64]&(1<<(k%64)) != 0 {
				out[i][j/64] |= 1 << (j % 64)
			}
		}
	}
	return out
}

// GetBit reads pattern k of a bit-parallel signal.
func GetBit(sig []uint64, k int) bool { return sig[k/64]&(1<<(k%64)) != 0 }

// SetBit writes pattern k of a bit-parallel signal.
func SetBit(sig []uint64, k int, v bool) {
	if v {
		sig[k/64] |= 1 << (k % 64)
	} else {
		sig[k/64] &^= 1 << (k % 64)
	}
}

// TailMask returns the mask of valid bits in the final word of an n-pattern
// bit-parallel signal. Inverting gates set garbage in unused tail bits, so
// any word-level aggregation over pattern responses must apply this mask to
// the last word.
func TailMask(n int) uint64 {
	if n%64 == 0 {
		return ^uint64(0)
	}
	return (uint64(1) << (n % 64)) - 1
}

// Result holds good-machine values for every gate under both LOC vectors.
// Indexing: [gateID][word].
type Result struct {
	N      int
	V1, V2 [][]uint64

	v1, v2 []uint64 // V1's and V2's backing arrays, gate-major
}

// FlatV2 returns the capture-cycle values of every gate as one gate-major
// slice that V2 aliases: gate id's words are [id*w:(id+1)*w], w the words
// per signal. Kernels that index many gates read it without loading a
// slice header per gate. Only results from Simulator.Run have one.
func (r *Result) FlatV2() []uint64 { return r.v2 }

// FlatV1 is FlatV2 for the launch-cycle values, which V1 aliases.
func (r *Result) FlatV1() []uint64 { return r.v1 }

// Trans returns the bit-parallel transition indicator V1 XOR V2 for a gate.
// Bits beyond the pattern count are masked off.
func (r *Result) Trans(gate int) []uint64 {
	out := make([]uint64, len(r.V1[gate]))
	for w := range out {
		out[w] = r.V1[gate][w] ^ r.V2[gate][w]
	}
	if len(out) > 0 {
		out[len(out)-1] &= TailMask(r.N)
	}
	return out
}

// HasTransition reports whether the gate switches under pattern k.
func (r *Result) HasTransition(gate, k int) bool {
	return GetBit(r.V1[gate], k) != GetBit(r.V2[gate], k)
}

// Simulator evaluates a levelized netlist bit-parallel.
type Simulator struct {
	n     *netlist.Netlist
	order []int
	ffPos map[int]int // DFF gate ID -> index in n.FFs
	piPos map[int]int
}

// New builds a simulator. The netlist must validate and levelize.
func New(n *netlist.Netlist) (*Simulator, error) {
	if err := n.Levelize(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	s := &Simulator{
		n:     n,
		order: n.TopoOrder(),
		ffPos: make(map[int]int, len(n.FFs)),
		piPos: make(map[int]int, len(n.PIs)),
	}
	for i, id := range n.FFs {
		s.ffPos[id] = i
	}
	for i, id := range n.PIs {
		s.piPos[id] = i
	}
	return s, nil
}

// Netlist returns the design under simulation.
func (s *Simulator) Netlist() *netlist.Netlist { return s.n }

// Run performs good-machine LOC simulation of all patterns: a launch pass
// (V1) on the scan-loaded state followed by a capture pass (V2) on the
// launched state.
func (s *Simulator) Run(ps *PatternSet) *Result {
	words := ps.Words()
	ng := len(s.n.Gates)
	res := &Result{N: ps.N}
	res.V1, res.v1 = makeValues(ng, words)
	res.V2, res.v2 = makeValues(ng, words)

	// Launch pass: PPIs come straight from the scan load.
	s.evalPass(res.V1, words, func(g *netlist.Gate, dst []uint64) {
		switch g.Type {
		case netlist.Input:
			copy(dst, ps.PI[s.piPos[g.ID]])
		case netlist.DFF:
			copy(dst, ps.FF[s.ffPos[g.ID]])
		}
	})
	// Capture pass: each flop output takes the value its data pin had at
	// launch (the value clocked in by the launch edge).
	s.evalPass(res.V2, words, func(g *netlist.Gate, dst []uint64) {
		switch g.Type {
		case netlist.Input:
			copy(dst, ps.PI[s.piPos[g.ID]])
		case netlist.DFF:
			copy(dst, res.V1[g.Fanin[0]])
		}
	})
	return res
}

// evalPass evaluates every gate in topological order into vals. source
// fills the values of PI and DFF gates.
func (s *Simulator) evalPass(vals [][]uint64, words int, source func(*netlist.Gate, []uint64)) {
	for _, id := range s.order {
		g := s.n.Gates[id]
		if g.Type.IsSource() {
			source(g, vals[id])
			continue
		}
		EvalGate(g, vals, vals[id])
	}
}

// makeValues allocates per-gate value slices carved in gate order from one
// backing array, which it also returns.
func makeValues(gates, words int) ([][]uint64, []uint64) {
	backing := make([]uint64, gates*words)
	vals := make([][]uint64, gates)
	for i := range vals {
		vals[i] = backing[i*words : (i+1)*words]
	}
	return vals, backing
}

// EvalGate computes a single gate's bit-parallel output from the values of
// its fanins in vals, writing into dst. Source gates (Input/DFF) must not be
// passed to EvalGate.
func EvalGate(g *netlist.Gate, vals [][]uint64, dst []uint64) {
	switch g.Type {
	case netlist.Buf, netlist.Output:
		copy(dst, vals[g.Fanin[0]])
	case netlist.Not:
		src := vals[g.Fanin[0]]
		for w := range dst {
			dst[w] = ^src[w]
		}
	case netlist.And, netlist.Nand:
		first := vals[g.Fanin[0]]
		copy(dst, first)
		for _, f := range g.Fanin[1:] {
			src := vals[f]
			for w := range dst {
				dst[w] &= src[w]
			}
		}
		if g.Type == netlist.Nand {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case netlist.Or, netlist.Nor:
		first := vals[g.Fanin[0]]
		copy(dst, first)
		for _, f := range g.Fanin[1:] {
			src := vals[f]
			for w := range dst {
				dst[w] |= src[w]
			}
		}
		if g.Type == netlist.Nor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		first := vals[g.Fanin[0]]
		copy(dst, first)
		for _, f := range g.Fanin[1:] {
			src := vals[f]
			for w := range dst {
				dst[w] ^= src[w]
			}
		}
		if g.Type == netlist.Xnor {
			for w := range dst {
				dst[w] = ^dst[w]
			}
		}
	case netlist.Mux:
		sel, a, b := vals[g.Fanin[0]], vals[g.Fanin[1]], vals[g.Fanin[2]]
		for w := range dst {
			dst[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	default:
		panic(fmt.Sprintf("sim: cannot evaluate gate type %s", g.Type))
	}
}

// Package faultsim implements transition-delay-fault (TDF) simulation on
// top of the bit-parallel LOC simulator. A TDF is a slow-to-rise or
// slow-to-fall defect at a specific pin of a specific gate; under
// launch-on-capture test the faulty machine's capture-cycle value at the
// site is the launch value whenever the site transitions in the
// fault's direction (the slow edge fails to arrive before the capture
// clock). Fault effects are propagated event-driven through the fan-out
// cone and reported as differences at observation capture gates, from
// which the scan architecture derives tester failures.
package faultsim

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// Polarity distinguishes the two TDF flavors.
type Polarity uint8

// Slow-to-rise faults break 0→1 transitions; slow-to-fall faults break 1→0.
const (
	SlowToRise Polarity = iota
	SlowToFall
)

// String returns "STR" or "STF".
func (p Polarity) String() string {
	if p == SlowToRise {
		return "STR"
	}
	return "STF"
}

// OutputPin marks a fault on a gate's output rather than one of its inputs.
const OutputPin = -1

// Fault is a single TDF site: a gate, a pin (OutputPin or a fanin index),
// and a polarity. A fault on an input pin affects only that branch of the
// driving net; a fault on the output pin affects all fanout branches.
type Fault struct {
	Gate int
	Pin  int
	Pol  Polarity
}

// String renders the fault as gate/pin/polarity.
func (f Fault) String() string {
	if f.Pin == OutputPin {
		return fmt.Sprintf("g%d/out/%s", f.Gate, f.Pol)
	}
	return fmt.Sprintf("g%d/in%d/%s", f.Gate, f.Pin, f.Pol)
}

// SiteGate returns the gate whose signal value carries the fault effect at
// the site: the gate itself for output faults, the driving gate for input
// faults.
func (f Fault) SiteGate(n *netlist.Netlist) int {
	if f.Pin == OutputPin {
		return f.Gate
	}
	return n.Gates[f.Gate].Fanin[f.Pin]
}

// AllFaults enumerates the full uncollapsed TDF list: both polarities at
// the output pin of every signal-bearing gate and at every input pin of
// every gate with fanin. Port pseudo-gates are excluded: primary inputs are
// held static under LOC (no transition can be launched) and Output gates
// alias their driver's output pin.
func AllFaults(n *netlist.Netlist) []Fault {
	var fs []Fault
	for _, g := range n.Gates {
		if g.Type == netlist.Input || g.Type == netlist.Output {
			continue
		}
		for _, pol := range []Polarity{SlowToRise, SlowToFall} {
			fs = append(fs, Fault{Gate: g.ID, Pin: OutputPin, Pol: pol})
			for pin := range g.Fanin {
				fs = append(fs, Fault{Gate: g.ID, Pin: pin, Pol: pol})
			}
		}
	}
	return fs
}

// MIVFaults enumerates TDFs at MIV output pins only.
func MIVFaults(n *netlist.Netlist) []Fault {
	var fs []Fault
	for _, g := range n.Gates {
		if !g.IsMIV {
			continue
		}
		fs = append(fs, Fault{Gate: g.ID, Pin: OutputPin, Pol: SlowToRise})
		fs = append(fs, Fault{Gate: g.ID, Pin: OutputPin, Pol: SlowToFall})
	}
	return fs
}

// applyTDF returns the faulty value of a signal whose fault-free launch
// value is v1 and whose (possibly already fault-affected) capture value is
// w: wherever the signal makes the slow transition, the stale launch value
// persists.
func applyTDF(pol Polarity, v1, w uint64) uint64 {
	var act uint64
	if pol == SlowToRise {
		act = ^v1 & w
	} else {
		act = v1 & ^w
	}
	return (act & v1) | (^act & w)
}

// Engine performs faulty-machine capture-cycle simulation.
type Engine struct {
	s     *sim.Simulator
	n     *netlist.Netlist
	order []int
	pos   []int32 // topological position per gate
	flat  *flatNetlist
	stems []int32 // fanout-free region stem per gate
	capt  captureIndex
	ds    *detectState
	dfs   *diffState
}

// NewEngine builds a fault-simulation engine over a simulator.
func NewEngine(s *sim.Simulator) *Engine {
	n := s.Netlist()
	e := &Engine{s: s, n: n, order: n.TopoOrder(), pos: n.TopoPos(), capt: newCaptureIndex(n)}
	e.flat = newFlat(n, e.pos)
	e.stems = e.newStems()
	return e
}

// Netlist returns the design under simulation.
func (e *Engine) Netlist() *netlist.Netlist { return e.n }

// Fork returns an engine sharing this engine's immutable state (netlist,
// simulator, topological order, flat netlist, region stems, capture index)
// but with private propagation scratch, so forks can simulate faults
// concurrently from separate goroutines. The scratch (detect/diff state) is
// rebuilt lazily on first use.
func (e *Engine) Fork() *Engine {
	return &Engine{s: e.s, n: e.n, order: e.order, pos: e.pos, flat: e.flat, stems: e.stems, capt: e.capt}
}

// Diff simulates the faulty machine for the given fault set against the
// good-machine result and returns, for each observation gate (PO or flop)
// whose captured value differs on any pattern, the bit-parallel difference
// mask of its capture value. An empty map means no pattern detects the
// fault(s).
func (e *Engine) Diff(res *sim.Result, faults []Fault) map[int][]uint64 {
	switch len(faults) {
	case 0:
		return nil
	case 1:
		obs := e.DiffObs(res, faults[0])
		m := make(map[int][]uint64, len(obs))
		for _, od := range obs {
			m[od.Gate] = append([]uint64(nil), od.Diff...)
		}
		return m
	}
	return e.diffMulti(res, faults)
}

// diffMulti is Diff for a fault set: the union fan-out cone is re-evaluated
// with every fault applied at once.
func (e *Engine) diffMulti(res *sim.Result, faults []Fault) map[int][]uint64 {
	words := len(res.V2[0])
	n := e.n

	// Faults indexed by the gate whose evaluation they perturb.
	outFaults := make(map[int][]Polarity)
	inFaults := make(map[int][]Fault)
	seedOutDFF := make(map[int]bool) // DFFs with an output-pin fault
	coneSeeds := make([]int, 0, len(faults))
	for _, f := range faults {
		if f.Pin == OutputPin {
			outFaults[f.Gate] = append(outFaults[f.Gate], f.Pol)
			if n.Gates[f.Gate].Type == netlist.DFF {
				seedOutDFF[f.Gate] = true
			}
			coneSeeds = append(coneSeeds, f.Gate)
		} else {
			inFaults[f.Gate] = append(inFaults[f.Gate], f)
			coneSeeds = append(coneSeeds, f.Gate)
		}
	}

	// Union fan-out cone of all perturbed gates. Propagation of
	// capture-cycle fault effects stops at frame boundaries: primary
	// outputs and flop data pins, where the tester observes them. The one
	// exception is a flop carrying an output-pin fault — its own launched
	// transition is slow, so the effect enters the capture frame.
	inCone := make([]bool, len(n.Gates))
	var stack []int
	for _, s := range coneSeeds {
		if !inCone[s] {
			inCone[s] = true
			stack = append(stack, s)
		}
	}
	var coneGates []int
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		coneGates = append(coneGates, id)
		g := n.Gates[id]
		if g.Type == netlist.Output || (g.Type == netlist.DFF && !seedOutDFF[id]) {
			continue
		}
		for _, s := range g.Fanout {
			if !inCone[s] {
				inCone[s] = true
				stack = append(stack, s)
			}
		}
	}
	sort.Slice(coneGates, func(i, j int) bool { return e.pos[coneGates[i]] < e.pos[coneGates[j]] })

	// Event-driven re-evaluation in topological order. changed maps gate ->
	// faulty capture value where it differs from the good machine.
	changed := make(map[int][]uint64)
	faultyIn := func(gate, pin int) []uint64 {
		src := n.Gates[gate].Fanin[pin]
		if v, ok := changed[src]; ok {
			return v
		}
		return res.V2[src]
	}
	for _, id := range coneGates {
		g := n.Gates[id]
		var out []uint64
		if g.Type.IsSource() {
			if g.Type != netlist.DFF {
				continue // PI values cannot be perturbed
			}
			// A flop inside the cone: its capture-frame output is the value
			// launched from its data pin, which is fault-free under the
			// single-capture LOC model (the fault manifests between launch
			// and capture). Output faults on the flop itself still apply.
			out = append(out[:0], res.V2[id]...)
		} else {
			// Recompute from (possibly faulty) inputs.
			vals := make(map[int][]uint64, len(g.Fanin))
			for pin := range g.Fanin {
				vals[pin] = faultyIn(id, pin)
			}
			// Apply input-pin faults on this gate's branches.
			for _, f := range inFaults[id] {
				src := g.Fanin[f.Pin]
				w := vals[f.Pin]
				nw := make([]uint64, words)
				for k := 0; k < words; k++ {
					nw[k] = applyTDF(f.Pol, res.V1[src][k], w[k])
				}
				vals[f.Pin] = nw
			}
			out = evalWithInputs(g, vals, words)
		}
		// Apply output-pin faults at this gate.
		for _, pol := range outFaults[id] {
			for k := 0; k < words; k++ {
				out[k] = applyTDF(pol, res.V1[id][k], out[k])
			}
		}
		diff := false
		for k := 0; k < words; k++ {
			if out[k] != res.V2[id][k] {
				diff = true
				break
			}
		}
		if diff {
			cp := make([]uint64, words)
			copy(cp, out)
			changed[id] = cp
		}
	}

	// Collect differences at observation capture points. Input-pin faults
	// on a flop's data pin or a PO's driver branch perturb only that
	// observation and are applied here.
	obsDiff := make(map[int][]uint64)
	record := func(obsGate, captureSrc int) {
		v, ok := changed[captureSrc]
		captured := res.V2[captureSrc]
		if ok {
			captured = v
		}
		if fs := inFaults[obsGate]; len(fs) > 0 {
			nw := make([]uint64, words)
			copy(nw, captured)
			for _, f := range fs {
				for k := 0; k < words; k++ {
					nw[k] = applyTDF(f.Pol, res.V1[captureSrc][k], nw[k])
				}
			}
			captured = nw
		}
		d := make([]uint64, words)
		any := uint64(0)
		for k := 0; k < words; k++ {
			d[k] = captured[k] ^ res.V2[captureSrc][k]
			any |= d[k]
		}
		if any != 0 {
			obsDiff[obsGate] = d
		}
	}
	for _, po := range n.POs {
		record(po, n.Gates[po].Fanin[0])
	}
	for _, ff := range n.FFs {
		record(ff, n.Gates[ff].Fanin[0])
	}
	return obsDiff
}

// evalWithInputs evaluates gate g on explicit per-pin input words.
func evalWithInputs(g *netlist.Gate, in map[int][]uint64, words int) []uint64 {
	out := make([]uint64, words)
	switch g.Type {
	case netlist.Buf, netlist.Output:
		copy(out, in[0])
	case netlist.Not:
		for k := 0; k < words; k++ {
			out[k] = ^in[0][k]
		}
	case netlist.And, netlist.Nand:
		copy(out, in[0])
		for pin := 1; pin < len(g.Fanin); pin++ {
			for k := 0; k < words; k++ {
				out[k] &= in[pin][k]
			}
		}
		if g.Type == netlist.Nand {
			for k := 0; k < words; k++ {
				out[k] = ^out[k]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, in[0])
		for pin := 1; pin < len(g.Fanin); pin++ {
			for k := 0; k < words; k++ {
				out[k] |= in[pin][k]
			}
		}
		if g.Type == netlist.Nor {
			for k := 0; k < words; k++ {
				out[k] = ^out[k]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, in[0])
		for pin := 1; pin < len(g.Fanin); pin++ {
			for k := 0; k < words; k++ {
				out[k] ^= in[pin][k]
			}
		}
		if g.Type == netlist.Xnor {
			for k := 0; k < words; k++ {
				out[k] = ^out[k]
			}
		}
	case netlist.Mux:
		for k := 0; k < words; k++ {
			out[k] = (in[0][k] & in[2][k]) | (^in[0][k] & in[1][k])
		}
	default:
		panic(fmt.Sprintf("faultsim: cannot evaluate %s", g.Type))
	}
	return out
}

// Detects reports whether the fault is detected by any pattern in the
// result (bypass observation, no compaction aliasing). Single-word results
// (at most 64 patterns) take the early-exit single-word path; larger
// results run the multi-word kernel behind DiffObs. Neither allocates once
// the engine is warm.
func (e *Engine) Detects(res *sim.Result, f Fault) bool {
	if len(res.V2) > 0 && len(res.V2[0]) == 1 {
		return e.detectsFast(res, f)
	}
	tail := sim.TailMask(res.N)
	for _, od := range e.DiffObs(res, f) {
		last := len(od.Diff) - 1
		for w, d := range od.Diff {
			if w == last {
				d &= tail
			}
			if d != 0 {
				return true
			}
		}
	}
	return false
}

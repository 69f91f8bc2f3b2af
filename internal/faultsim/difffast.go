package faultsim

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// ObsDiff is the capture-value difference a single fault causes at one
// observation point.
type ObsDiff struct {
	// Obs is the observation point's index in Netlist.ObservationPoints:
	// primary outputs first, then flops.
	Obs int
	// Gate is the PO or flop gate.
	Gate int
	// Diff is the bit-parallel good XOR faulty captured value. Bits beyond
	// the pattern count are not masked.
	Diff []uint64
}

// diffState holds reusable buffers for the single-fault multi-word diff
// path, the inner loop of diagnosis candidate scoring.
type diffState struct {
	words int
	// The faulty value of a changed gate is arena[slot:slot+words] where
	// vstamp matches. The arena is reset for each propagation, so it holds
	// only the stem's changed cone, not every gate.
	slot   []int32
	arena  []uint64
	vstamp []int32
	stamp  int32
	queue  posQueue
	capts  []int32  // changed capture gates collected during propagation
	out    []uint64 // StemFlip: value of the current gate on the chain
	prev   []uint64 // faulty value of the previous gate on a StemFlip chain
	pert   []uint64 // faulty value of a perturbed input pin
	flip   []uint64 // DiffObs: the lanes on which the fault flips its stem
	buf    []uint64 // diff words handed out by DiffObs and DiffStem
	diffs  []ObsDiff
}

// diffScratch returns the engine's diff scratch for results of the given
// word width, building it on first use.
func (e *Engine) diffScratch(words int) *diffState {
	if e.dfs != nil && e.dfs.words == words {
		return e.dfs
	}
	n := e.n
	ds := &diffState{
		words:  words,
		slot:   make([]int32, len(n.Gates)),
		vstamp: make([]int32, len(n.Gates)),
		out:    make([]uint64, words),
		prev:   make([]uint64, words),
		pert:   make([]uint64, words),
		flip:   make([]uint64, words),
		queue:  newPosQueue(len(n.Gates)),
	}
	for i := range ds.vstamp {
		ds.vstamp[i] = -1
	}
	e.dfs = ds
	return ds
}

// captureIndex is a per-gate CSR of the observation points that capture a
// gate's value. It depends only on the netlist, so an engine and its forks
// share one.
type captureIndex struct {
	off   []int32 // list[off[id]:off[id+1]] capture gate id
	list  []int32
	gates []int // observation index to its PO or flop gate
}

func newCaptureIndex(n *netlist.Netlist) captureIndex {
	c := captureIndex{off: make([]int32, len(n.Gates)+1), gates: n.ObservationPoints()}
	capture := func(obs int) int { return n.Gates[c.gates[obs]].Fanin[0] }
	for obs := range c.gates {
		c.off[capture(obs)+1]++
	}
	for id := range n.Gates {
		c.off[id+1] += c.off[id]
	}
	c.list = make([]int32, len(c.gates))
	fill := append([]int32(nil), c.off[:len(n.Gates)]...)
	for obs := range c.gates {
		g := capture(obs)
		c.list[fill[g]] = int32(obs)
		fill[g]++
	}
	return c
}

// observers returns the observation indices that capture gate id.
func (c captureIndex) observers(id int) []int32 {
	return c.list[c.off[id]:c.off[id+1]]
}

// captured reports whether gate id feeds a flop data pin or a primary
// output.
func (c captureIndex) captured(id int) bool { return c.off[id+1] > c.off[id] }

// obsLocal reports whether f sits on the data pin of a flop or the driver
// branch of a PO: such a fault perturbs only that one observation.
func (e *Engine) obsLocal(f Fault) bool {
	if f.Pin == OutputPin {
		return false
	}
	t := e.n.Gates[f.Gate].Type
	return t == netlist.DFF || t == netlist.Output
}

// DiffObs simulates a single fault and returns the observation points whose
// captured value differs on any pattern, with their difference words, in
// no particular order. A fault on a flop data pin or PO driver branch
// changes only that observation; any other fault is StemFlip followed by
// DiffStem. It makes no allocations once the engine is warm. The result and
// its Diff words live in the engine's scratch: they are valid until the
// next call on this engine.
func (e *Engine) DiffObs(res *sim.Result, f Fault) []ObsDiff {
	ds := e.diffScratch(len(res.V2[0]))
	if !e.obsLocal(f) {
		return e.DiffStem(res, e.StemFlip(res, f, ds.flip), ds.flip)
	}
	// The fault is applied at the observation itself; nothing upstream
	// changed.
	ds.diffs = ds.diffs[:0]
	src := e.n.Gates[f.Gate].Fanin[0]
	d := ds.scratch(ds.words)
	any := uint64(0)
	for w := range d {
		gv := res.V2[src][w]
		d[w] = applyTDF(f.Pol, res.V1[src][w], gv) ^ gv
		any |= d[w]
	}
	if any == 0 {
		return ds.diffs
	}
	for _, obs := range e.capt.observers(src) {
		if e.capt.gates[obs] == f.Gate {
			ds.diffs = append(ds.diffs, ObsDiff{Obs: int(obs), Gate: f.Gate, Diff: d})
		}
	}
	return ds.diffs
}

// DiffStem propagates the stem's good value XOR flip through its fan-out
// cone and returns the observation points whose captured value differs,
// with their difference words, in no particular order. Like DiffObs it
// makes no allocations once the engine is warm, and its result is valid
// until the next call on this engine.
func (e *Engine) DiffStem(res *sim.Result, stem int, flip []uint64) []ObsDiff {
	ds := e.propagate(res, stem, flip)
	words := ds.words
	ds.diffs = ds.diffs[:0]
	all := ds.scratch(len(ds.capts) * words)
	for i, c := range ds.capts {
		d := all[i*words : (i+1)*words]
		fv, gv := ds.faulty(int(c)), res.V2[c]
		for w := range d {
			d[w] = fv[w] ^ gv[w]
		}
		for _, obs := range e.capt.observers(int(c)) {
			ds.diffs = append(ds.diffs, ObsDiff{Obs: int(obs), Gate: e.capt.gates[obs], Diff: d})
		}
	}
	return ds.diffs
}

// faulty returns the faulty value of a gate the current propagation
// changed.
func (ds *diffState) faulty(id int) []uint64 {
	o := int(ds.slot[id])
	return ds.arena[o : o+ds.words]
}

// scratch returns a reused buffer of n words.
func (ds *diffState) scratch(n int) []uint64 {
	if cap(ds.buf) < n {
		ds.buf = make([]uint64, n)
	}
	return ds.buf[:n]
}

// propagate is the event-driven cone kernel: it seeds the stem with its
// good value XOR flip and re-evaluates the stem's fan-out cone in
// topological order (see posQueue), leaving the faulty value of every
// changed gate in the arena (stamped in vstamp) and the changed capture
// gates in capts. Propagation stops at POs and flop data pins, where the
// tester observes it. It reads no *netlist.Gate, only the flat netlist,
// the topological order and the flat good values, and evaluates each gate
// straight into a fresh arena slot, which it keeps only if the gate
// changed.
func (e *Engine) propagate(res *sim.Result, stem int, flip []uint64) *diffState {
	ds := e.diffScratch(len(res.V2[0]))
	words := ds.words
	ds.stamp++
	ds.arena = ds.arena[:0]
	ds.capts = ds.capts[:0]
	fl, good := e.flat, res.FlatV2()

	out := ds.grow()
	gv := good[stem*words : (stem+1)*words]
	changed := uint64(0)
	for w := range out {
		out[w] = gv[w] ^ flip[w]
		changed |= flip[w]
	}
	ds.queue.start(e.pos[stem])
	for id := int32(stem); ; {
		if changed != 0 {
			ds.slot[id] = int32(len(ds.arena) - words)
			ds.vstamp[id] = ds.stamp
			if e.capt.captured(int(id)) {
				ds.capts = append(ds.capts, id)
			}
			for _, p := range fl.propagating(id) {
				ds.queue.push(p)
			}
		} else {
			ds.arena = ds.arena[:len(ds.arena)-words]
		}
		p := ds.queue.pop()
		if p < 0 {
			return ds
		}
		id = int32(e.order[p])
		changed = ds.eval(fl, good, id, ds.grow())
	}
}

// grow appends one value slot to the arena and returns it. Arena values
// are read by offset, never through a slice held across a grow, so
// reallocating the arena is safe.
func (ds *diffState) grow() []uint64 {
	o := len(ds.arena)
	ds.arena = slices.Grow(ds.arena, ds.words)[:o+ds.words]
	return ds.arena[o:]
}

// val returns gate id's value in the current propagation: the faulty value
// if the propagation changed it, else its good value.
func (ds *diffState) val(good []uint64, id int32) []uint64 {
	o, src := int(id)*ds.words, good
	if ds.vstamp[id] == ds.stamp {
		o, src = int(ds.slot[id]), ds.arena
	}
	return src[o : o+ds.words]
}

// eval evaluates combinational gate id on its drivers' current values into
// out and returns a nonzero word when out differs from the gate's good
// value.
func (ds *diffState) eval(fl *flatNetlist, good []uint64, id int32, out []uint64) uint64 {
	fin := fl.drivers(id)
	acc, inv := out, uint64(0)
	switch fl.kind[id] {
	case netlist.Buf, netlist.Not:
		acc = ds.val(good, fin[0])
	case netlist.And, netlist.Nand:
		copy(out, ds.val(good, fin[0]))
		for _, f := range fin[1:] {
			src := ds.val(good, f)[:len(out)]
			for w := range out {
				out[w] &= src[w]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, ds.val(good, fin[0]))
		for _, f := range fin[1:] {
			src := ds.val(good, f)[:len(out)]
			for w := range out {
				out[w] |= src[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, ds.val(good, fin[0]))
		for _, f := range fin[1:] {
			src := ds.val(good, f)[:len(out)]
			for w := range out {
				out[w] ^= src[w]
			}
		}
	case netlist.Mux:
		sel, a, b := ds.val(good, fin[0])[:len(out)], ds.val(good, fin[1])[:len(out)], ds.val(good, fin[2])[:len(out)]
		for w := range out {
			out[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	}
	switch fl.kind[id] {
	case netlist.Not, netlist.Nand, netlist.Nor, netlist.Xnor:
		inv = ^uint64(0)
	}
	gv := good[int(id)*len(out) : (int(id)+1)*len(out)]
	acc = acc[:len(out)]
	changed := uint64(0)
	for w := range out {
		v := acc[w] ^ inv
		out[w] = v
		changed |= v ^ gv[w]
	}
	return changed
}

// evalFastWords evaluates a gate word-wise from per-gate value accessors.
func evalFastWords(g *netlist.Gate, val func(int) []uint64, words int, out []uint64) {
	switch g.Type {
	case netlist.Buf:
		copy(out, val(g.Fanin[0]))
	case netlist.Not:
		src := val(g.Fanin[0])
		for w := 0; w < words; w++ {
			out[w] = ^src[w]
		}
	case netlist.And, netlist.Nand:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] &= src[w]
			}
		}
		if g.Type == netlist.Nand {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] |= src[w]
			}
		}
		if g.Type == netlist.Nor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, val(g.Fanin[0]))
		for _, f := range g.Fanin[1:] {
			src := val(f)
			for w := 0; w < words; w++ {
				out[w] ^= src[w]
			}
		}
		if g.Type == netlist.Xnor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Mux:
		sel, a, b := val(g.Fanin[0]), val(g.Fanin[1]), val(g.Fanin[2])
		for w := 0; w < words; w++ {
			out[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	}
}

// evalFastWordsOverride is evalFastWords with one input overridden.
func evalFastWordsOverride(g *netlist.Gate, val func(int) []uint64, pin int, pv []uint64, words int, out []uint64) {
	in := func(p int) []uint64 {
		if p == pin {
			return pv
		}
		return val(g.Fanin[p])
	}
	switch g.Type {
	case netlist.Buf:
		copy(out, in(0))
	case netlist.Not:
		src := in(0)
		for w := 0; w < words; w++ {
			out[w] = ^src[w]
		}
	case netlist.And, netlist.Nand:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] &= src[w]
			}
		}
		if g.Type == netlist.Nand {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Or, netlist.Nor:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] |= src[w]
			}
		}
		if g.Type == netlist.Nor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Xor, netlist.Xnor:
		copy(out, in(0))
		for p := 1; p < len(g.Fanin); p++ {
			src := in(p)
			for w := 0; w < words; w++ {
				out[w] ^= src[w]
			}
		}
		if g.Type == netlist.Xnor {
			for w := 0; w < words; w++ {
				out[w] = ^out[w]
			}
		}
	case netlist.Mux:
		sel, a, b := in(0), in(1), in(2)
		for w := 0; w < words; w++ {
			out[w] = (sel[w] & b[w]) | (^sel[w] & a[w])
		}
	}
}

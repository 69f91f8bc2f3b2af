package faultsim

import (
	"slices"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// A fanout-free region (FFR) is a tree of gates that each drive exactly one
// gate, rooted at a stem whose value fans out, is captured, or goes
// nowhere. A fault inside a region changes only the gates on its path to
// the stem, none of them observed, so it reaches the rest of the circuit
// only through the stem: the faulty circuit is the good one with the stem
// flipped on some pattern lanes. Faults that share a stem therefore share
// one fan-out propagation.

// newStems maps every gate to the stem of its fanout-free region. A gate is
// its own stem when a PO or flop data pin captures it, when no gate
// propagates its value, or when more than one gate does; otherwise its stem
// is the stem of its one propagating sink. One reverse-topological pass
// over e.order, after e.flat and e.capt are built.
func (e *Engine) newStems() []int32 {
	stems := make([]int32, len(e.n.Gates))
	for i := len(e.order) - 1; i >= 0; i-- {
		id := e.order[i]
		stems[id] = int32(id)
		if e.capt.captured(id) {
			continue
		}
		if s := e.propagatingSink(id); s >= 0 {
			stems[id] = stems[s]
		}
	}
	return stems
}

// propagatingSink returns the one gate that propagates id's value within
// the capture frame, or -1 when none or more than one does (the flat
// netlist's propagating sinks: POs and flops capture a value rather than
// propagate it, and a sink fed on several pins counts once).
func (e *Engine) propagatingSink(id int) int {
	if s := e.flat.propagating(int32(id)); len(s) == 1 {
		return e.order[s[0]]
	}
	return -1
}

// Stem returns the stem of the fanout-free region fault f sits in, or -1
// for an observation-local fault (a flop data pin or PO driver branch).
func (e *Engine) Stem(f Fault) int {
	if e.obsLocal(f) {
		return -1
	}
	return int(e.stems[f.Gate])
}

// StemFlip writes to dst the pattern lanes on which fault f flips the
// value of its region's stem, and returns the stem. For an
// observation-local fault it writes nothing and returns -1. Patterns are
// independent bit lanes, so in every lane DiffObs(f) equals
// DiffStem(stem, flip), and DiffStem(stem, u) & flip for any u covering
// flip. dst needs one word per pattern word. It makes no allocations once
// the engine is warm.
func (e *Engine) StemFlip(res *sim.Result, f Fault, dst []uint64) int {
	if e.obsLocal(f) {
		return -1
	}
	ds := e.diffScratch(len(res.V2[0]))
	words := ds.words
	n := e.n
	good := func(id int) []uint64 { return res.V2[id] }

	// The faulty value at the site.
	id := f.Gate
	g := n.Gates[id]
	cur, next := ds.prev, ds.out
	switch {
	case f.Pin != OutputPin:
		src := g.Fanin[f.Pin]
		for w := 0; w < words; w++ {
			ds.pert[w] = applyTDF(f.Pol, res.V1[src][w], res.V2[src][w])
		}
		evalFastWordsOverride(g, good, f.Pin, ds.pert, words, cur)
	case g.Type == netlist.Input || g.Type == netlist.Output:
		copy(cur, res.V2[id]) // port pseudo-gates carry no fault
	default:
		for w := 0; w < words; w++ {
			cur[w] = applyTDF(f.Pol, res.V1[id][w], res.V2[id][w])
		}
	}

	// Walk the single-sink chain to the stem. Every pin the previous chain
	// gate drives carries its faulty value; every other pin lies outside
	// the fault's cone and carries its good value.
	stem := int(e.stems[id])
	for id != stem && !slices.Equal(cur, res.V2[id]) {
		prev, pv := id, cur
		id = e.propagatingSink(id)
		evalFastWords(n.Gates[id], func(x int) []uint64 {
			if x == prev {
				return pv
			}
			return res.V2[x]
		}, words, next)
		cur, next = next, cur
	}
	gv := res.V2[id]
	for w := 0; w < words; w++ {
		dst[w] = cur[w] ^ gv[w]
	}
	return stem
}

package faultsim

import (
	"repro/internal/netlist"
	"repro/internal/sim"
)

// detectState holds reusable buffers for the single-word event-driven
// detection fast path, avoiding per-call allocation in the ATPG inner loop.
type detectState struct {
	fval   []uint64 // faulty value per gate (valid when vstamp matches)
	vstamp []int32
	stamp  int32
	queue  posQueue
}

func (e *Engine) initDetect() {
	n := e.n
	ds := &detectState{
		fval:   make([]uint64, len(n.Gates)),
		vstamp: make([]int32, len(n.Gates)),
		queue:  newPosQueue(len(n.Gates)),
	}
	for i := range ds.vstamp {
		ds.vstamp[i] = -1
	}
	e.ds = ds
}

// detectsFast is the allocation-free single-word event-driven detection
// path used by ATPG's fault-dropping loop (pattern batches of at most 64).
// It returns true as soon as any observation capture gate flips, clearing
// the events it leaves queued.
func (e *Engine) detectsFast(res *sim.Result, f Fault) bool {
	if e.ds == nil {
		e.initDetect()
	}
	ds := e.ds
	ds.stamp++
	st := ds.stamp
	n := e.n
	mask := sim.TailMask(res.N)

	good := func(id int) uint64 { return res.V2[id][0] }
	faulty := func(id int) uint64 {
		if ds.vstamp[id] == st {
			return ds.fval[id]
		}
		return good(id)
	}

	// Special case: fault on a flop data pin or PO driver branch is
	// observed directly at that element.
	if f.Pin != OutputPin {
		g := n.Gates[f.Gate]
		if g.Type == netlist.DFF || g.Type == netlist.Output {
			src := g.Fanin[0]
			w := applyTDF(f.Pol, res.V1[src][0], good(src))
			return (w^good(src))&mask != 0
		}
	}

	// Seed: the gate whose evaluation the fault perturbs.
	seed := f.Gate
	ds.queue.start(e.pos[seed])
	ds.queue.push(e.pos[seed])
	seedIsDFFOut := f.Pin == OutputPin && n.Gates[seed].Type == netlist.DFF

	for p := ds.queue.pop(); p >= 0; p = ds.queue.pop() {
		id := e.order[p]
		g := n.Gates[id]
		var out uint64
		switch {
		case g.Type == netlist.DFF:
			if !(id == seed && seedIsDFFOut) {
				continue // data-pin change is observed, not propagated
			}
			out = applyTDF(f.Pol, res.V1[id][0], good(id))
		case g.Type == netlist.Output:
			continue
		default:
			out = evalFast(g, faulty)
			if id == f.Gate && f.Pin != OutputPin {
				// Re-evaluate with the perturbed branch.
				src := g.Fanin[f.Pin]
				pert := applyTDF(f.Pol, res.V1[src][0], faulty(src))
				out = evalFastOverride(g, faulty, f.Pin, pert)
			}
			if id == f.Gate && f.Pin == OutputPin {
				out = applyTDF(f.Pol, res.V1[id][0], out)
			}
		}
		if (out^good(id))&mask == 0 {
			continue // no event
		}
		ds.fval[id] = out
		ds.vstamp[id] = st
		if e.capt.captured(id) {
			ds.queue.clear()
			return true
		}
		// Propagating sinks exclude POs and flops: the capture boundary,
		// which captured already covered.
		for _, s := range e.flat.propagating(int32(id)) {
			ds.queue.push(s)
		}
	}
	return false
}

// evalFast evaluates a gate on single-word values supplied by val.
func evalFast(g *netlist.Gate, val func(int) uint64) uint64 {
	switch g.Type {
	case netlist.Buf:
		return val(g.Fanin[0])
	case netlist.Not:
		return ^val(g.Fanin[0])
	case netlist.And, netlist.Nand:
		v := ^uint64(0)
		for _, f := range g.Fanin {
			v &= val(f)
		}
		if g.Type == netlist.Nand {
			v = ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := uint64(0)
		for _, f := range g.Fanin {
			v |= val(f)
		}
		if g.Type == netlist.Nor {
			v = ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := uint64(0)
		for _, f := range g.Fanin {
			v ^= val(f)
		}
		if g.Type == netlist.Xnor {
			v = ^v
		}
		return v
	case netlist.Mux:
		sel, a, b := val(g.Fanin[0]), val(g.Fanin[1]), val(g.Fanin[2])
		return (sel & b) | (^sel & a)
	}
	return 0
}

// evalFastOverride is evalFast with one input pin overridden.
func evalFastOverride(g *netlist.Gate, val func(int) uint64, pin int, pv uint64) uint64 {
	in := func(p int) uint64 {
		if p == pin {
			return pv
		}
		return val(g.Fanin[p])
	}
	switch g.Type {
	case netlist.Buf:
		return in(0)
	case netlist.Not:
		return ^in(0)
	case netlist.And, netlist.Nand:
		v := ^uint64(0)
		for p := range g.Fanin {
			v &= in(p)
		}
		if g.Type == netlist.Nand {
			v = ^v
		}
		return v
	case netlist.Or, netlist.Nor:
		v := uint64(0)
		for p := range g.Fanin {
			v |= in(p)
		}
		if g.Type == netlist.Nor {
			v = ^v
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := uint64(0)
		for p := range g.Fanin {
			v ^= in(p)
		}
		if g.Type == netlist.Xnor {
			v = ^v
		}
		return v
	case netlist.Mux:
		return (in(0) & in(2)) | (^in(0) & in(1))
	}
	return 0
}

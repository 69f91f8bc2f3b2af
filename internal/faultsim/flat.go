package faultsim

import (
	"math/bits"

	"repro/internal/netlist"
)

// flatNetlist is the pointer-free view of the netlist that the cone
// kernels read: gate kinds, an int32 fan-in CSR, and a CSR of the gates
// each gate's value propagates to within the capture frame, stored as
// topological positions so they go straight into a posQueue. It depends
// only on the netlist, so an engine and its forks share one.
type flatNetlist struct {
	kind   []netlist.GateType // by gate
	finOff []int32            // gate id's drivers are fanin[finOff[id]:finOff[id+1]], in pin order
	fanin  []int32
	// Gate id's propagating sinks are sinks[sinkOff[id]:sinkOff[id+1]]:
	// its fanout gates less POs and flops, which capture a value rather
	// than propagate it, each listed once however many pins it feeds.
	sinkOff []int32
	sinks   []int32 // topological positions
}

// newFlat flattens n; pos is the topological position of every gate.
func newFlat(n *netlist.Netlist, pos []int32) *flatNetlist {
	gates := len(n.Gates)
	fl := &flatNetlist{
		kind:    make([]netlist.GateType, gates),
		finOff:  make([]int32, gates+1),
		sinkOff: make([]int32, gates+1),
	}
	seen := make([]int32, gates) // sink stamp: driver id + 1
	for id, g := range n.Gates {
		fl.kind[id] = g.Type
		for _, f := range g.Fanin {
			fl.fanin = append(fl.fanin, int32(f))
		}
		fl.finOff[id+1] = int32(len(fl.fanin))
		for _, s := range g.Fanout {
			t := n.Gates[s].Type
			if t == netlist.Output || t == netlist.DFF || seen[s] == int32(id)+1 {
				continue
			}
			seen[s] = int32(id) + 1
			fl.sinks = append(fl.sinks, pos[s])
		}
		fl.sinkOff[id+1] = int32(len(fl.sinks))
	}
	return fl
}

// drivers returns gate id's fan-in gates in pin order.
func (fl *flatNetlist) drivers(id int32) []int32 {
	return fl.fanin[fl.finOff[id]:fl.finOff[id+1]]
}

// propagating returns the topological positions of gate id's propagating
// sinks.
func (fl *flatNetlist) propagating(id int32) []int32 {
	return fl.sinks[fl.sinkOff[id]:fl.sinkOff[id+1]]
}

// posQueue is the event queue of a cone traversal: a set of topological
// positions, one bit each, popped lowest first. A gate's sinks all sit
// after it in topological order, so every push lands after the position
// last popped, and pop scans forward from a cursor that never moves back
// within a traversal. Popping in topological order evaluates each gate
// once, after every changed gate it reads; any topological order is a
// valid event order in a DAG, so the values are those of any other.
// Pushing a queued position again is a no-op.
type posQueue struct {
	bits []uint64
	cur  int // word of the last pop: no bit is set before it
	end  int // one past the last word a push reached
}

func newPosQueue(gates int) posQueue {
	return posQueue{bits: make([]uint64, (gates+63)/64)}
}

// start begins a traversal whose pushes all lie at or after position p.
// The queue must be empty.
func (q *posQueue) start(p int32) {
	q.cur = int(p >> 6)
	q.end = q.cur
}

func (q *posQueue) push(p int32) {
	w := int(p >> 6)
	q.bits[w] |= 1 << (p & 63)
	q.end = max(q.end, w+1)
}

// pop removes and returns the lowest queued position, or -1 when the queue
// is empty.
func (q *posQueue) pop() int32 {
	for ; q.cur < q.end; q.cur++ {
		if b := q.bits[q.cur]; b != 0 {
			q.bits[q.cur] = b & (b - 1)
			return int32(q.cur<<6 | bits.TrailingZeros64(b))
		}
	}
	return -1
}

// clear empties the queue of a traversal that stopped before draining it.
func (q *posQueue) clear() {
	clear(q.bits[q.cur:q.end])
}

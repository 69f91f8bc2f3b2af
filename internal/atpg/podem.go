package atpg

import (
	"math/bits"

	"repro/internal/faultsim"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// podem is a two-frame PODEM test generator for launch-on-capture TDF
// patterns. The sequential behaviour of LOC is modeled by unrolling two
// time frames: frame 1 (launch) evaluates the combinational logic on the
// scan-loaded flop state; frame 2 (capture) evaluates it again with each
// flop output taking the frame-1 value of its data pin. Decision variables
// are the primary inputs (static across both frames) and the frame-1 flop
// state. The fault effect exists only in frame 2, where the site holds its
// frame-1 value whenever the good machine makes the slow transition.
type podem struct {
	n             *netlist.Netlist
	maxBacktracks int

	// Pointer-free view of the netlist, by gate id unless noted.
	order  []int32 // topological position -> gate
	pos    []int32 // gate -> topological position
	kind   []netlist.GateType
	finOff []int32 // gate id's drivers are fanin[finOff[id]:finOff[id+1]], in pin order
	fanin  []int32
	// Gate id's sinks within a frame are sinks[sinkOff[id]:sinkOff[id+1]]:
	// every fanout gate but flops, POs included. Its flop sinks, whose
	// frame-2 value is its frame-1 value, are ffSinks[ffOff[id]:ffOff[id+1]].
	// Both hold topological positions, each sink once however many pins
	// it feeds.
	sinkOff, sinks []int32
	ffOff, ffSinks []int32
	srcIdx         []int32 // PI gate -> PI index, flop -> flop index
	obsSrc         []int32 // capture gates (fanin of POs and flops), deduped
	pinVals        []byte  // evalPin scratch: the site's input values
	pinIdx         []int32 // the identity fan-in over pinVals

	piVal []byte // 0, 1, or vX
	ffVal []byte

	f1 []byte // frame-1 values
	g2 []byte // frame-2 good values
	b2 []byte // frame-2 faulty values

	q1, q2 posQueue // frame-1 and frame-2 events
	cone   []int32  // the current target's site cone
}

// Three-valued logic constants.
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

func newPodem(n *netlist.Netlist, maxBacktracks int) *podem {
	gates := len(n.Gates)
	p := &podem{
		n:             n,
		maxBacktracks: maxBacktracks,
		order:         make([]int32, gates),
		pos:           make([]int32, gates),
		kind:          make([]netlist.GateType, gates),
		finOff:        make([]int32, gates+1),
		sinkOff:       make([]int32, gates+1),
		ffOff:         make([]int32, gates+1),
		srcIdx:        make([]int32, gates),
		piVal:         make([]byte, len(n.PIs)),
		ffVal:         make([]byte, len(n.FFs)),
		f1:            make([]byte, gates),
		g2:            make([]byte, gates),
		b2:            make([]byte, gates),
		q1:            newPosQueue(gates),
		q2:            newPosQueue(gates),
	}
	for i, id := range n.TopoOrder() {
		p.order[i] = int32(id)
		p.pos[id] = int32(i)
	}
	maxFanin := 0
	seen := make([]int32, gates) // sink stamp: driver id + 1
	for id, g := range n.Gates {
		p.kind[id] = g.Type
		for _, d := range g.Fanin {
			p.fanin = append(p.fanin, int32(d))
		}
		p.finOff[id+1] = int32(len(p.fanin))
		maxFanin = max(maxFanin, len(g.Fanin))
		for _, s := range g.Fanout {
			if seen[s] == int32(id)+1 {
				continue
			}
			seen[s] = int32(id) + 1
			if n.Gates[s].Type == netlist.DFF {
				p.ffSinks = append(p.ffSinks, p.pos[s])
			} else {
				p.sinks = append(p.sinks, p.pos[s])
			}
		}
		p.sinkOff[id+1] = int32(len(p.sinks))
		p.ffOff[id+1] = int32(len(p.ffSinks))
	}
	p.pinVals = make([]byte, maxFanin)
	p.pinIdx = make([]int32, maxFanin)
	for i := range p.pinIdx {
		p.pinIdx[i] = int32(i)
	}
	for i, id := range n.PIs {
		p.srcIdx[id] = int32(i)
	}
	for i, id := range n.FFs {
		p.srcIdx[id] = int32(i)
	}
	clear(seen)
	for _, obs := range [][]int{n.POs, n.FFs} {
		for _, id := range obs {
			src := n.Gates[id].Fanin[0]
			if seen[src] == 0 {
				seen[src] = 1
				p.obsSrc = append(p.obsSrc, int32(src))
			}
		}
	}
	return p
}

// drivers returns gate id's fan-in gates in pin order.
func (p *podem) drivers(id int32) []int32 {
	return p.fanin[p.finOff[id]:p.finOff[id+1]]
}

// varGate maps a decision-variable index to its gate. Variable index
// space: [0, len(PIs)) PIs, then flops.
func (p *podem) varGate(v int) int32 {
	if v < len(p.n.PIs) {
		return int32(p.n.PIs[v])
	}
	return int32(p.n.FFs[v-len(p.n.PIs)])
}

// transformInput is the gate whose frame-1 value the fault's frame-2
// transform reads: the site itself for an output-pin fault, the faulted
// pin's driver for an input-pin fault.
func (p *podem) transformInput(f faultsim.Fault) int32 {
	if f.Pin == faultsim.OutputPin {
		return int32(f.Gate)
	}
	return p.fanin[p.finOff[f.Gate]+int32(f.Pin)]
}

// eval1 is gate id's frame-1 value.
func (p *podem) eval1(id int32) byte {
	switch k := p.kind[id]; k {
	case netlist.Input:
		return p.piVal[p.srcIdx[id]]
	case netlist.DFF:
		return p.ffVal[p.srcIdx[id]]
	default:
		return eval3(k, p.drivers(id), p.f1)
	}
}

// eval2 is gate id's frame-2 good and faulty value, with the fault's
// transforms applied at its site. It reads frame 1 only through flop data
// sources and the transform input.
func (p *podem) eval2(id int32, f faultsim.Fault) (good, faulty byte) {
	switch k := p.kind[id]; k {
	case netlist.Input:
		good = p.piVal[p.srcIdx[id]]
		faulty = good
	case netlist.DFF:
		good = p.f1[p.fanin[p.finOff[id]]]
		faulty = good
	default:
		fin := p.drivers(id)
		good = eval3(k, fin, p.g2)
		if f.Pin != faultsim.OutputPin && f.Gate == int(id) {
			// Input-pin fault on this gate: perturb that branch only.
			src := fin[f.Pin]
			faulty = p.evalPin(k, fin, f.Pin, applyTDF3(f.Pol, p.f1[src], p.b2[src]))
		} else {
			faulty = eval3(k, fin, p.b2)
		}
	}
	if f.Pin == faultsim.OutputPin && f.Gate == int(id) {
		faulty = applyTDF3(f.Pol, p.f1[id], faulty)
	}
	return good, faulty
}

// evalPin evaluates a gate of kind k on the faulty plane with input pin
// pin reading val instead of its driver.
func (p *podem) evalPin(k netlist.GateType, fin []int32, pin int, val byte) byte {
	vals := p.pinVals[:len(fin)]
	for i, s := range fin {
		vals[i] = p.b2[s]
	}
	vals[pin] = val
	return eval3(k, p.pinIdx[:len(fin)], vals)
}

// imply performs full three-valued evaluation of both frames and the
// faulty frame-2 machine.
func (p *podem) imply(f faultsim.Fault) {
	for _, id := range p.order {
		p.f1[id] = p.eval1(id)
	}
	for _, id := range p.order {
		p.g2[id], p.b2[id] = p.eval2(id, f)
	}
}

// propagate brings the three planes up to date after variable v changed,
// given planes that matched a full imply before the change. It is
// event-driven: only gates with a changed driver are re-evaluated,
// frame 1 first, then frame 2, each in topological order. A frame-1
// change reaches frame 2 at a primary input (static across frames), at
// the flops it feeds, and at the fault site when it is the transform
// input. Evaluation is a pure function of a gate's drivers, so the planes
// end up equal to a full imply.
func (p *podem) propagate(v int, f faultsim.Fault) {
	tin := p.transformInput(f)
	p.q1.push(p.pos[p.varGate(v)])
	for at := p.q1.pop(); at >= 0; at = p.q1.pop() {
		id := p.order[at]
		val := p.eval1(id)
		if val == p.f1[id] {
			continue
		}
		p.f1[id] = val
		for _, s := range p.sinks[p.sinkOff[id]:p.sinkOff[id+1]] {
			p.q1.push(s)
		}
		for _, s := range p.ffSinks[p.ffOff[id]:p.ffOff[id+1]] {
			p.q2.push(s)
		}
		if p.kind[id] == netlist.Input {
			p.q2.push(at)
		}
		if id == tin {
			p.q2.push(p.pos[f.Gate])
		}
	}
	for at := p.q2.pop(); at >= 0; at = p.q2.pop() {
		id := p.order[at]
		good, faulty := p.eval2(id, f)
		if good == p.g2[id] && faulty == p.b2[id] {
			continue
		}
		p.g2[id], p.b2[id] = good, faulty
		for _, s := range p.sinks[p.sinkOff[id]:p.sinkOff[id+1]] {
			p.q2.push(s)
		}
	}
}

// posQueue is an event queue over topological positions, one bit each,
// popped lowest first. Pushes may land anywhere before a drain starts;
// during a drain every push is a sink of the gate just popped, so it lies
// after it and the cursor only moves forward. Popping in topological
// order evaluates each gate once, after every changed gate it reads.
// Pushing a queued position again is a no-op.
type posQueue struct {
	bits   []uint64
	lo, hi int // only words in [lo, hi) may hold a set bit
}

func newPosQueue(gates int) posQueue {
	w := (gates + 63) / 64
	return posQueue{bits: make([]uint64, w), lo: w}
}

func (q *posQueue) push(p int32) {
	w := int(p >> 6)
	q.bits[w] |= 1 << (p & 63)
	q.lo = min(q.lo, w)
	q.hi = max(q.hi, w+1)
}

// pop removes and returns the lowest queued position, or -1 when the
// queue is empty.
func (q *posQueue) pop() int32 {
	for ; q.lo < q.hi; q.lo++ {
		if b := q.bits[q.lo]; b != 0 {
			q.bits[q.lo] = b & (b - 1)
			return int32(q.lo<<6 | bits.TrailingZeros64(b))
		}
	}
	q.lo, q.hi = len(q.bits), 0
	return -1
}

// decision is one PODEM decision-stack entry.
type decision struct {
	isPI    bool
	idx     int
	val     byte
	flipped bool
}

// generate searches for a single LOC pattern detecting the fault. It
// returns (pattern, true) on success. Implication is incremental: a full
// three-plane evaluation once per target, then event-driven updates.
func (p *podem) generate(f faultsim.Fault) (*sim.PatternSet, bool) {
	return p.search(f, p.propagate)
}

// search is generate with the implication step after each assignment of
// variable v supplied by the caller.
func (p *podem) search(f faultsim.Fault, implyVar func(v int, f faultsim.Fault)) (*sim.PatternSet, bool) {
	for i := range p.piVal {
		p.piVal[i] = vX
	}
	for i := range p.ffVal {
		p.ffVal[i] = vX
	}
	site := int32(f.SiteGate(p.n))
	want1 := v0 // launch value required at the site
	if f.Pol == faultsim.SlowToFall {
		want1 = v1
	}
	want2 := v1 - want1 // capture value completing the transition

	p.imply(f)
	p.cone = p.siteCone(f, p.cone[:0])

	// Bound total work per fault: assignments and backtracks both trigger
	// one incremental propagation.
	implications := 0
	maxImplications := 10 * p.maxBacktracks
	var stack []decision
	backtracks := 0

	update := func(isPI bool, idx int, val byte) {
		v := idx
		if isPI {
			p.piVal[idx] = val
		} else {
			p.ffVal[idx] = val
			v += len(p.n.PIs)
		}
		implyVar(v, f)
	}

	for {
		implications++
		if implications > maxImplications {
			return nil, false
		}
		if p.detected(f) {
			return p.pattern(), true
		}
		objGate, objVal, objFrame, ok := p.objective(f, site, want1, want2)
		if ok {
			varIsPI, idx, val, traced := p.backtrace(objGate, objVal, objFrame)
			if traced {
				stack = append(stack, decision{isPI: varIsPI, idx: idx, val: val})
				update(varIsPI, idx, val)
				continue
			}
		}
		// Conflict or no backtraceable objective: backtrack.
		for {
			if len(stack) == 0 {
				return nil, false
			}
			top := &stack[len(stack)-1]
			if !top.flipped {
				top.flipped = true
				top.val = 1 - top.val
				update(top.isPI, top.idx, top.val)
				backtracks++
				if backtracks > p.maxBacktracks {
					return nil, false
				}
				break
			}
			update(top.isPI, top.idx, vX)
			stack = stack[:len(stack)-1]
		}
	}
}

// siteCone appends to cone the fault gate and its frame-2 combinational
// fan-out cone, in topological order. Outside it the faulty plane equals
// the good one.
func (p *podem) siteCone(f faultsim.Fault, cone []int32) []int32 {
	q := &p.q2
	q.push(p.pos[f.Gate])
	for at := q.pop(); at >= 0; at = q.pop() {
		id := p.order[at]
		cone = append(cone, id)
		for _, s := range p.sinks[p.sinkOff[id]:p.sinkOff[id+1]] {
			q.push(s)
		}
	}
	return cone
}

// pattern converts the current assignment (X bits filled with 0) into a
// single-pattern set.
func (p *podem) pattern() *sim.PatternSet {
	ps := sim.NewPatternSet(p.n, 1)
	for i, v := range p.piVal {
		sim.SetBit(ps.PI[i], 0, v == v1)
	}
	for i, v := range p.ffVal {
		sim.SetBit(ps.FF[i], 0, v == v1)
	}
	return ps
}

// applyTDF3 is the three-valued slow-transition transform: where the launch
// value and arriving capture value are known and form the slow edge, the
// stale launch value persists; any X stays X.
func applyTDF3(pol faultsim.Polarity, launch, capture byte) byte {
	if launch == vX || capture == vX {
		return vX
	}
	if pol == faultsim.SlowToRise && launch == v0 && capture == v1 {
		return v0
	}
	if pol == faultsim.SlowToFall && launch == v1 && capture == v0 {
		return v1
	}
	return capture
}

// eval3 evaluates a gate of kind k with drivers fin on the three-valued
// plane vals.
func eval3(k netlist.GateType, fin []int32, vals []byte) byte {
	switch k {
	case netlist.Buf, netlist.Output:
		return vals[fin[0]]
	case netlist.Not:
		return not3(vals[fin[0]])
	case netlist.And, netlist.Nand:
		v := v1
		for _, s := range fin {
			v = and3(v, vals[s])
		}
		if k == netlist.Nand {
			v = not3(v)
		}
		return v
	case netlist.Or, netlist.Nor:
		v := v0
		for _, s := range fin {
			v = or3(v, vals[s])
		}
		if k == netlist.Nor {
			v = not3(v)
		}
		return v
	case netlist.Xor, netlist.Xnor:
		v := v0
		for _, s := range fin {
			v = xor3(v, vals[s])
		}
		if k == netlist.Xnor {
			v = not3(v)
		}
		return v
	case netlist.Mux:
		sel, a, b := vals[fin[0]], vals[fin[1]], vals[fin[2]]
		switch sel {
		case v0:
			return a
		case v1:
			return b
		default:
			if a == b && a != vX {
				return a
			}
			return vX
		}
	}
	return vX
}

func not3(a byte) byte {
	if a == vX {
		return vX
	}
	return 1 - a
}
func and3(a, b byte) byte {
	if a == v0 || b == v0 {
		return v0
	}
	if a == vX || b == vX {
		return vX
	}
	return v1
}
func or3(a, b byte) byte {
	if a == v1 || b == v1 {
		return v1
	}
	if a == vX || b == vX {
		return vX
	}
	return v0
}
func xor3(a, b byte) byte {
	if a == vX || b == vX {
		return vX
	}
	return a ^ b
}

// detected reports whether any observation capture gate holds a definite
// good/faulty difference in frame 2. A fault on a flop's own data pin is
// observed at that flop directly: the captured value differs whenever the
// slow transition is exercised at the pin.
func (p *podem) detected(f faultsim.Fault) bool {
	for _, src := range p.obsSrc {
		if p.g2[src] != vX && p.b2[src] != vX && p.g2[src] != p.b2[src] {
			return true
		}
	}
	if f.Pin != faultsim.OutputPin && p.kind[f.Gate] == netlist.DFF {
		src := p.fanin[p.finOff[f.Gate]]
		captured := applyTDF3(f.Pol, p.f1[src], p.b2[src])
		if captured != vX && p.g2[src] != vX && captured != p.g2[src] {
			return true
		}
	}
	return false
}

// objective returns the next PODEM objective: activate the launch value,
// then the capture transition, then advance the D-frontier. ok=false means
// the current assignment cannot detect the fault (conflict).
func (p *podem) objective(f faultsim.Fault, site int32, want1, want2 byte) (gate int32, val byte, frame int, ok bool) {
	switch p.f1[site] {
	case vX:
		return site, want1, 1, true
	case want1:
	default:
		return 0, 0, 0, false // activation contradicted
	}
	// For input-pin faults the transition is still on the site signal.
	switch p.g2[site] {
	case vX:
		return site, want2, 2, true
	case want2:
	default:
		return 0, 0, 0, false
	}
	// Site is activated: advance the D-frontier in frame 2. A D needs a
	// faulty value that differs from the good one, which only the site
	// cone holds, so the first frontier gate in topological order is the
	// first in the cone.
	for _, id := range p.cone {
		k := p.kind[id]
		if k.IsSource() || k == netlist.Output {
			continue
		}
		// Frontier gates have unknown outputs on both planes.
		if p.g2[id] != vX || p.b2[id] != vX {
			continue
		}
		fin := p.drivers(id)
		hasD, xPin := false, -1
		for pin, src := range fin {
			gv, bv := p.g2[src], p.b2[src]
			if f.Pin == pin && f.Gate == int(id) {
				bv = applyTDF3(f.Pol, p.f1[src], bv)
			}
			if gv != vX && bv != vX && gv != bv {
				hasD = true
			} else if gv == vX {
				xPin = pin
			}
		}
		if hasD && xPin >= 0 {
			return fin[xPin], nonControlling(k), 2, true
		}
	}
	return 0, 0, 0, false
}

// nonControlling returns the input value that lets a fault effect pass
// through the gate type.
func nonControlling(t netlist.GateType) byte {
	switch t {
	case netlist.And, netlist.Nand:
		return v1
	case netlist.Or, netlist.Nor:
		return v0
	default:
		return v0 // XOR-family and MUX: any definite value propagates
	}
}

// backtrace walks an objective back to an unassigned decision variable.
// frame 2 traversal crosses flop outputs into frame 1.
func (p *podem) backtrace(gate int32, val byte, frame int) (isPI bool, idx int, out byte, ok bool) {
	for steps := 0; steps < 4*len(p.kind); steps++ {
		vals := p.f1
		if frame == 2 {
			vals = p.g2
		}
		fin := p.drivers(gate)
		switch k := p.kind[gate]; k {
		case netlist.Input:
			i := int(p.srcIdx[gate])
			if p.piVal[i] != vX {
				return false, 0, 0, false
			}
			return true, i, val, true
		case netlist.DFF:
			if frame == 2 {
				frame = 1
				gate = fin[0]
				continue
			}
			i := int(p.srcIdx[gate])
			if p.ffVal[i] != vX {
				return false, 0, 0, false
			}
			return false, i, val, true
		case netlist.Buf, netlist.Output:
			gate = fin[0]
		case netlist.Not:
			val = 1 - val
			gate = fin[0]
		case netlist.And, netlist.Nand, netlist.Or, netlist.Nor:
			// Whether every input must be non-controlling or one
			// controlling input suffices, the first X input takes the
			// value the output needs before inversion.
			if k == netlist.Nand || k == netlist.Nor {
				val = 1 - val
			}
			pin := firstXPin(fin, vals)
			if pin < 0 {
				return false, 0, 0, false
			}
			gate = fin[pin]
		case netlist.Xor, netlist.Xnor:
			// Parity: pick an X input and solve for it given known inputs.
			parity := val
			if k == netlist.Xnor {
				parity = 1 - parity
			}
			pin := -1
			for i, src := range fin {
				v := vals[src]
				if v == vX {
					if pin < 0 {
						pin = i
					}
				} else {
					parity ^= v
				}
			}
			if pin < 0 {
				return false, 0, 0, false
			}
			gate = fin[pin]
			val = parity
		case netlist.Mux:
			switch vals[fin[0]] {
			case v0:
				gate = fin[1]
			case v1:
				gate = fin[2]
			default:
				gate = fin[0]
				val = v0
			}
		default:
			return false, 0, 0, false
		}
	}
	return false, 0, 0, false
}

func firstXPin(fin []int32, vals []byte) int {
	for pin, src := range fin {
		if vals[src] == vX {
			return pin
		}
	}
	return -1
}

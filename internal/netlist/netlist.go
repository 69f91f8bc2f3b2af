package netlist

import (
	"errors"
	"fmt"
)

// Netlist is a gate-level circuit: a DAG of gates plus port/flop indexes.
// Gate IDs are dense indexes into Gates.
type Netlist struct {
	Name  string
	Gates []*Gate

	// PIs, POs and FFs list the gate IDs of primary inputs, primary outputs
	// and D flip-flops, in creation order.
	PIs []int
	POs []int
	FFs []int

	levelized bool
	order     []int   // cached topological order of combinational evaluation
	pos       []int32 // each gate's index in order
}

// New returns an empty netlist with the given name.
func New(name string) *Netlist {
	return &Netlist{Name: name}
}

// AddGate appends a gate of the given type and returns its ID. Fanin lists
// driving gate IDs in pin order; fanout adjacency is maintained
// automatically. AddGate panics if a fanin ID is out of range or the pin
// count exceeds the type's limit.
func (n *Netlist) AddGate(name string, t GateType, fanin ...int) int {
	if max := t.MaxFanin(); max >= 0 && len(fanin) > max {
		panic(fmt.Sprintf("netlist: %s accepts at most %d inputs, got %d", t, max, len(fanin)))
	}
	id := len(n.Gates)
	g := &Gate{ID: id, Name: name, Type: t, Tier: TierNone}
	g.Fanin = append(g.Fanin, fanin...)
	n.Gates = append(n.Gates, g)
	for _, f := range fanin {
		if f < 0 || f >= id {
			panic(fmt.Sprintf("netlist: gate %q fanin %d out of range", name, f))
		}
		n.Gates[f].Fanout = append(n.Gates[f].Fanout, id)
	}
	switch t {
	case Input:
		n.PIs = append(n.PIs, id)
	case Output:
		n.POs = append(n.POs, id)
	case DFF:
		n.FFs = append(n.FFs, id)
	}
	n.levelized = false
	return id
}

// Clone returns a deep copy of the netlist (gates, adjacency, annotations).
// The copy is not levelized.
func (n *Netlist) Clone() *Netlist {
	out := &Netlist{Name: n.Name}
	out.Gates = make([]*Gate, len(n.Gates))
	for i, g := range n.Gates {
		cp := *g
		cp.Fanin = append([]int(nil), g.Fanin...)
		cp.Fanout = append([]int(nil), g.Fanout...)
		out.Gates[i] = &cp
	}
	out.PIs = append([]int(nil), n.PIs...)
	out.POs = append([]int(nil), n.POs...)
	out.FFs = append([]int(nil), n.FFs...)
	return out
}

// ReplaceFanin rewires pin index pin of gate id from its current source to
// newSrc, maintaining fanout adjacency on both ends.
func (n *Netlist) ReplaceFanin(id, pin, newSrc int) {
	g := n.Gates[id]
	old := g.Fanin[pin]
	g.Fanin[pin] = newSrc
	// Remove one occurrence of id from old's fanout.
	fo := n.Gates[old].Fanout
	for i, s := range fo {
		if s == id {
			n.Gates[old].Fanout = append(fo[:i], fo[i+1:]...)
			break
		}
	}
	n.Gates[newSrc].Fanout = append(n.Gates[newSrc].Fanout, id)
	n.levelized = false
}

// Connect appends src as the next fanin pin of gate id, updating fanout
// adjacency. Unlike AddGate's fanin arguments it permits forward references,
// which sequential feedback paths require.
func (n *Netlist) Connect(id, src int) {
	g := n.Gates[id]
	if max := g.Type.MaxFanin(); max >= 0 && len(g.Fanin) >= max {
		panic(fmt.Sprintf("netlist: Connect exceeds %s pin limit on gate %d", g.Type, id))
	}
	g.Fanin = append(g.Fanin, src)
	n.Gates[src].Fanout = append(n.Gates[src].Fanout, id)
	n.levelized = false
}

// Gate returns the gate with the given ID.
func (n *Netlist) Gate(id int) *Gate { return n.Gates[id] }

// NumGates returns the total number of gates including port pseudo-gates.
func (n *Netlist) NumGates() int { return len(n.Gates) }

// NumLogicGates returns the number of combinational logic cells, excluding
// ports, flops and MIV pseudo-buffers.
func (n *Netlist) NumLogicGates() int {
	c := 0
	for _, g := range n.Gates {
		if g.Type != Input && g.Type != Output && g.Type != DFF && !g.IsMIV {
			c++
		}
	}
	return c
}

// NumMIVs returns the number of MIV pseudo-buffers in the design.
func (n *Netlist) NumMIVs() int {
	c := 0
	for _, g := range n.Gates {
		if g.IsMIV {
			c++
		}
	}
	return c
}

// NumEdges returns the number of gate-to-gate connections.
func (n *Netlist) NumEdges() int {
	c := 0
	for _, g := range n.Gates {
		c += len(g.Fanin)
	}
	return c
}

// Validate checks structural invariants: pin counts, acyclicity of the
// combinational logic, driven outputs, and connected flops. It returns the
// first violation found.
func (n *Netlist) Validate() error {
	for _, g := range n.Gates {
		if max := g.Type.MaxFanin(); max >= 0 && len(g.Fanin) > max {
			return fmt.Errorf("gate %d (%s %s): %d inputs exceeds max %d",
				g.ID, g.Name, g.Type, len(g.Fanin), max)
		}
		switch g.Type {
		case Input:
			if len(g.Fanin) != 0 {
				return fmt.Errorf("input %d (%s) has fanin", g.ID, g.Name)
			}
		case Output, DFF, Buf, Not:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("gate %d (%s %s) needs exactly 1 input, has %d",
					g.ID, g.Name, g.Type, len(g.Fanin))
			}
		case Mux:
			if len(g.Fanin) != 3 {
				return fmt.Errorf("mux %d (%s) needs 3 inputs, has %d", g.ID, g.Name, len(g.Fanin))
			}
		default:
			if len(g.Fanin) < 2 {
				return fmt.Errorf("gate %d (%s %s) needs >=2 inputs, has %d",
					g.ID, g.Name, g.Type, len(g.Fanin))
			}
		}
	}
	if _, err := n.topoOrder(); err != nil {
		return err
	}
	return nil
}

// Levelize assigns topological levels to all gates, with combinational
// sources (PIs and DFF outputs) at level 0. It returns an error if the
// combinational logic contains a cycle. The evaluation order is cached.
func (n *Netlist) Levelize() error {
	order, err := n.topoOrder()
	if err != nil {
		return err
	}
	for _, g := range n.Gates {
		g.Level = 0
	}
	for _, id := range order {
		g := n.Gates[id]
		if g.Type.IsSource() {
			g.Level = 0
			continue
		}
		maxIn := int32(-1)
		for _, f := range g.Fanin {
			fg := n.Gates[f]
			lvl := fg.Level
			if fg.Type == DFF {
				lvl = 0 // flop output starts a new combinational frame
			}
			if lvl > maxIn {
				maxIn = lvl
			}
		}
		g.Level = maxIn + 1
	}
	n.order = order
	n.pos = make([]int32, len(order))
	for i, id := range order {
		n.pos[id] = int32(i)
	}
	n.levelized = true
	return nil
}

// TopoOrder returns gate IDs in a combinational evaluation order: sources
// first, every gate after all its fanins. DFFs appear both as sources (their
// outputs) and as sinks (their data pins are evaluated like outputs).
// Levelize must have been called, otherwise TopoOrder panics.
func (n *Netlist) TopoOrder() []int {
	if !n.levelized {
		panic("netlist: TopoOrder before Levelize")
	}
	return n.order
}

// TopoPos returns each gate's position in TopoOrder, indexed by gate ID.
// Levelize must have been called, otherwise TopoPos panics.
func (n *Netlist) TopoPos() []int32 {
	if !n.levelized {
		panic("netlist: TopoPos before Levelize")
	}
	return n.pos
}

// topoOrder computes an evaluation order via Kahn's algorithm on the
// combinational view: edges from a DFF's output are sources, the edge into a
// DFF's data pin is a sink, so flop feedback does not create cycles.
func (n *Netlist) topoOrder() ([]int, error) {
	indeg := make([]int, len(n.Gates))
	for _, g := range n.Gates {
		if g.Type.IsSource() {
			indeg[g.ID] = 0
			continue
		}
		indeg[g.ID] = len(g.Fanin)
	}
	queue := make([]int, 0, len(n.Gates))
	for _, g := range n.Gates {
		if indeg[g.ID] == 0 {
			queue = append(queue, g.ID)
		}
	}
	order := make([]int, 0, len(n.Gates))
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range n.Gates[id].Fanout {
			sg := n.Gates[s]
			if sg.Type.IsSource() {
				continue // edge into a DFF data pin terminates the frame
			}
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(n.Gates) {
		return nil, errors.New("netlist: combinational cycle detected")
	}
	return order, nil
}

// FaninCone returns the set of gate IDs (as a bitmap keyed by ID) in the
// combinational fan-in cone of root, inclusive. Traversal stops at
// combinational sources (PIs and flop outputs).
func (n *Netlist) FaninCone(root int) []bool {
	seen := make([]bool, len(n.Gates))
	stack := []int{root}
	seen[root] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := n.Gates[id]
		if g.Type.IsSource() && id != root {
			continue
		}
		for _, f := range g.Fanin {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return seen
}

// FanoutCone returns the set of gate IDs in the combinational fan-out cone
// of root, inclusive. Traversal stops at Output gates and DFF data pins
// (the flop itself is included as an observation endpoint but not crossed).
func (n *Netlist) FanoutCone(root int) []bool {
	seen := make([]bool, len(n.Gates))
	stack := []int{root}
	seen[root] = true
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		g := n.Gates[id]
		if (g.Type == Output || g.Type == DFF) && id != root {
			continue
		}
		for _, s := range g.Fanout {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}

// ObservationPoints returns the gate IDs at which responses are captured
// during scan testing: all primary outputs followed by all flops (whose data
// pins are the scan-capture points).
func (n *Netlist) ObservationPoints() []int {
	ops := make([]int, 0, len(n.POs)+len(n.FFs))
	ops = append(ops, n.POs...)
	ops = append(ops, n.FFs...)
	return ops
}

// Stats summarizes a netlist for reporting.
type Stats struct {
	Gates  int // combinational logic cells
	FFs    int
	PIs    int
	POs    int
	MIVs   int
	Edges  int
	Depth  int // maximum combinational level
	TopCnt int // gates assigned to the top tier
	BotCnt int // gates assigned to the bottom tier
}

// ComputeStats levelizes (if needed) and summarizes the netlist.
func (n *Netlist) ComputeStats() (Stats, error) {
	if !n.levelized {
		if err := n.Levelize(); err != nil {
			return Stats{}, err
		}
	}
	s := Stats{
		Gates: n.NumLogicGates(),
		FFs:   len(n.FFs),
		PIs:   len(n.PIs),
		POs:   len(n.POs),
		MIVs:  n.NumMIVs(),
		Edges: n.NumEdges(),
	}
	for _, g := range n.Gates {
		if int(g.Level) > s.Depth {
			s.Depth = int(g.Level)
		}
		switch g.Tier {
		case TierTop:
			s.TopCnt++
		case TierBottom:
			s.BotCnt++
		}
	}
	return s, nil
}

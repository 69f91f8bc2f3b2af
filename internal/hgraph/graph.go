// Package hgraph builds the paper's heterogeneous graph from a circuit
// under diagnosis and derives the back-traced subgraphs the GNN models
// consume.
//
// Circuit level: every fault site is a node — the output pin of each gate
// and every input pin of every gate — with edges from input pins to output
// pins (gate traversal) and from net stems to net branches (output pin to
// the sink's input pin). MIV pseudo-buffers contribute their own pin nodes,
// so every MIV can be pinpointed in constant time (Section III-A).
//
// Top level: each observation point (the data input of a scan flop, plus
// primary-output inputs) forms a Topnode connected by Topedges to every
// node in its fan-in cone. Topedges are not materialized: as the paper
// notes, they exist to accelerate back-tracing and contribute numerical
// features — the shortest distance to the Topnode and the number of MIVs
// on that path — which Build aggregates per node (count, mean, standard
// deviation) during one BFS per Topnode.
package hgraph

import (
	"math"

	"repro/internal/netlist"
	"repro/internal/scan"
	"repro/internal/sim"
)

// Graph is the full heterogeneous graph for one design.
type Graph struct {
	arch *scan.Arch

	// NumNodes is the circuit-level (pin) node count.
	NumNodes int
	// NodeGate maps node -> owning gate. NodeDriver maps node -> the gate
	// whose net the pin carries: the gate itself for an output pin (a PO's
	// driver for a PO's output pin), the fanin source for an input pin.
	NodeGate   []int32
	NodeDriver []int32
	// OutNode maps gate -> its output-pin node. InNode maps gate -> input
	// pin nodes in pin order.
	OutNode []int32
	InNode  [][]int32

	// Fanin/Fanout are the circuit-level directed pin adjacency.
	Fanin  [][]int32
	Fanout [][]int32

	// Topnodes lists the observation-point nodes (flop data pins, then PO
	// input pins) aligned with the netlist's FFs and POs slices.
	TopFF []int32
	TopPO []int32

	// maxTier normalizes the tier feature to [0,1] across however many
	// tiers the design has (the paper's two-tier case keeps 0/1 exactly).
	// The other per-node static features follow from the pin adjacency
	// and the netlist (see staticFeatureRow).
	maxTier int8

	// Topedge aggregates per node.
	NTop            []float64 // number of fan-in Topedges
	DMean, DStd     []float64 // shortest-distance stats
	MIVMean, MIVStd []float64 // MIVs-on-path stats
}

// FeatureDim is the width of the Table-II node feature vector produced by
// Subgraph.Features: 11 static features plus 2 subgraph-local degrees.
const FeatureDim = 13

// FeatureNames lists the Table-II features in column order.
var FeatureNames = [FeatureDim]string{
	"circuit fan-in edges",
	"circuit fan-out edges",
	"topedges connected",
	"tier-level location",
	"topological level",
	"is gate output",
	"connects to MIV",
	"subgraph fan-in edges",
	"subgraph fan-out edges",
	"mean topedge length",
	"std topedge length",
	"mean topedge MIVs",
	"std topedge MIVs",
}

// Build constructs the heterogeneous graph. res supplies good-machine
// transition data indirectly at back-trace time; Build itself needs only
// the structure.
func Build(arch *scan.Arch) *Graph {
	n := arch.Netlist()
	g := &Graph{arch: arch}

	// Allocate pin nodes.
	g.OutNode = make([]int32, len(n.Gates))
	g.InNode = make([][]int32, len(n.Gates))
	id := int32(0)
	for _, gate := range n.Gates {
		g.OutNode[gate.ID] = id
		g.NodeGate = append(g.NodeGate, int32(gate.ID))
		driver := gate.ID
		if gate.Type == netlist.Output {
			driver = gate.Fanin[0]
		}
		g.NodeDriver = append(g.NodeDriver, int32(driver))
		id++
		pins := make([]int32, len(gate.Fanin))
		for p, src := range gate.Fanin {
			pins[p] = id
			g.NodeGate = append(g.NodeGate, int32(gate.ID))
			g.NodeDriver = append(g.NodeDriver, int32(src))
			id++
		}
		g.InNode[gate.ID] = pins
	}
	g.NumNodes = int(id)

	// Edges: stem->branch and input-pin->output-pin.
	g.Fanin = make([][]int32, g.NumNodes)
	g.Fanout = make([][]int32, g.NumNodes)
	addEdge := func(from, to int32) {
		g.Fanout[from] = append(g.Fanout[from], to)
		g.Fanin[to] = append(g.Fanin[to], from)
	}
	for _, gate := range n.Gates {
		for p, src := range gate.Fanin {
			addEdge(g.OutNode[src], g.InNode[gate.ID][p])
			if gate.Type != netlist.DFF {
				// Gate traversal; flop data pins terminate the
				// combinational frame, matching the simulator.
				addEdge(g.InNode[gate.ID][p], g.OutNode[gate.ID])
			}
		}
	}

	// Topnodes.
	for _, ff := range n.FFs {
		g.TopFF = append(g.TopFF, g.InNode[ff][0])
	}
	for _, po := range n.POs {
		g.TopPO = append(g.TopPO, g.InNode[po][0])
	}

	g.maxTier = 1
	for _, gate := range n.Gates {
		g.maxTier = max(g.maxTier, gate.Tier)
	}
	g.buildTopedgeStats(n)
	return g
}

// buildTopedgeStats runs one reverse BFS per Topnode over the pin graph,
// accumulating per-node Topedge count, distance and MIV-count statistics.
func (g *Graph) buildTopedgeStats(n *netlist.Netlist) {
	N := g.NumNodes
	g.NTop = make([]float64, N)
	sumD := make([]float64, N)
	sumD2 := make([]float64, N)
	sumM := make([]float64, N)
	sumM2 := make([]float64, N)

	dist := make([]int32, N)
	mivs := make([]int32, N)
	stamp := make([]int32, N)
	for i := range stamp {
		stamp[i] = -1
	}
	queue := make([]int32, 0, 1024)

	tops := make([]int32, 0, len(g.TopFF)+len(g.TopPO))
	tops = append(tops, g.TopFF...)
	tops = append(tops, g.TopPO...)
	for t, top := range tops {
		st := int32(t)
		queue = queue[:0]
		queue = append(queue, top)
		stamp[top] = st
		dist[top] = 0
		mivs[top] = 0
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			g.NTop[v]++
			d := float64(dist[v])
			m := float64(mivs[v])
			sumD[v] += d
			sumD2[v] += d * d
			sumM[v] += m
			sumM2[v] += m * m
			for _, u := range g.Fanin[v] {
				if stamp[u] == st {
					continue
				}
				stamp[u] = st
				dist[u] = dist[v] + 1
				mivs[u] = mivs[v]
				if n.Gates[g.NodeGate[u]].IsMIV {
					mivs[u]++
				}
				queue = append(queue, u)
			}
		}
	}
	g.DMean = make([]float64, N)
	g.DStd = make([]float64, N)
	g.MIVMean = make([]float64, N)
	g.MIVStd = make([]float64, N)
	for v := 0; v < N; v++ {
		c := g.NTop[v]
		if c == 0 {
			continue
		}
		g.DMean[v] = sumD[v] / c
		g.MIVMean[v] = sumM[v] / c
		g.DStd[v] = math.Sqrt(math.Max(0, sumD2[v]/c-g.DMean[v]*g.DMean[v]))
		g.MIVStd[v] = math.Sqrt(math.Max(0, sumM2[v]/c-g.MIVMean[v]*g.MIVMean[v]))
	}
}

// Netlist returns the underlying design.
func (g *Graph) Netlist() *netlist.Netlist { return g.arch.Netlist() }

// isOutPin reports whether node v is its gate's output pin.
func (g *Graph) isOutPin(v int32) bool { return g.OutNode[g.NodeGate[v]] == v }

// nodeTransitions reports whether pin node v switches under pattern k,
// that is whether its driving gate does.
func (g *Graph) nodeTransitions(res *sim.Result, v int32, k int) bool {
	d, w := g.NodeDriver[v], k/64
	return (res.V1[d][w]^res.V2[d][w])>>(k%64)&1 != 0
}

// loc is the tier-level location of the gate's pin nodes: its tier
// normalized to [0,1], or 0.5 for an MIV, which sits between tiers.
func (g *Graph) loc(gate *netlist.Gate) float64 {
	if gate.Tier < 0 {
		return 0.5
	}
	return float64(gate.Tier) / float64(g.maxTier)
}

// touchesMIV reports whether a pin of the gate is an MIV pin or adjacent
// to one: the gate is an MIV, or an MIV drives or reads it.
func touchesMIV(n *netlist.Netlist, gate *netlist.Gate) bool {
	if gate.IsMIV {
		return true
	}
	for _, adj := range [2][]int{gate.Fanin, gate.Fanout} {
		for _, id := range adj {
			if n.Gates[id].IsMIV {
				return true
			}
		}
	}
	return false
}

// flag is 1 for true and 0 for false.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// staticFeatureRow fills the first 7 and last 4 Table-II columns for node v
// into row (length FeatureDim); columns 7 and 8 (subgraph degrees) are the
// caller's responsibility. The first 7 follow from the pin adjacency and
// the node's gate; the last 4 are the Topedge statistics.
func (g *Graph) staticFeatureRow(v int32, row []float64) {
	n := g.Netlist()
	gate := n.Gates[g.NodeGate[v]]
	row[0] = float64(len(g.Fanin[v]))
	row[1] = float64(len(g.Fanout[v]))
	row[2] = g.NTop[v]
	row[3] = g.loc(gate)
	row[4] = float64(gate.Level)
	row[5] = flag(g.isOutPin(v))
	row[6] = flag(touchesMIV(n, gate))
	row[9] = g.DMean[v]
	row[10] = g.DStd[v]
	row[11] = g.MIVMean[v]
	row[12] = g.MIVStd[v]
}

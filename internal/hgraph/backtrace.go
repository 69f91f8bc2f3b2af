package hgraph

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cone"
	"repro/internal/failurelog"
	"repro/internal/mat"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Subgraph is the homogeneous circuit-level graph extracted by
// back-tracing one failure log (Fig. 3 of the paper). Node features follow
// Table II; topological dependency of the top level is already encoded in
// the numerical feature columns.
type Subgraph struct {
	// Nodes maps local index -> full-graph node ID.
	Nodes []int32
	// Adj is the undirected local adjacency used by the GCN layers.
	Adj [][]int32
	// X holds the FeatureDim-wide node feature matrix.
	X *mat.Matrix
	// MIVLocal lists local indices of MIV output-pin nodes; MIVGates holds
	// the corresponding netlist gate IDs.
	MIVLocal []int32
	MIVGates []int
	// TierOf gives each local node's normalized tier location in [0,1]
	// (0.5 for MIVs, which sit between tiers).
	TierOf []float64

	// adjCache memoizes a derived representation of Adj (the GNN stack's
	// normalized CSR adjacency). It is stored as `any` so hgraph stays
	// decoupled from the consumer; its lifetime is tied to the subgraph, so
	// a discarded subgraph releases its cache with it. Concurrent builders
	// may race to store the same deterministic value — last write wins.
	adjCache atomic.Value
}

// NumNodes returns the subgraph size.
func (s *Subgraph) NumNodes() int { return len(s.Nodes) }

// AdjCache returns the memoized derived adjacency (nil before SetAdjCache).
// The cached value must be a pure function of Adj: callers that mutate Adj
// after caching get stale results.
func (s *Subgraph) AdjCache() any { return s.adjCache.Load() }

// SetAdjCache stores a derived adjacency representation. v must be non-nil.
func (s *Subgraph) SetAdjCache(v any) { s.adjCache.Store(v) }

// Backtrace runs the paper's back-tracing algorithm: for every erroneous
// response, collect the fault-site nodes in the fan-in cones of the failing
// Topnodes that transition under the failing pattern; intersect the
// per-response suspect sets; extract the induced circuit-level subgraph.
// When the strict intersection is empty (reconvergence or compactor
// aliasing), the threshold relaxes progressively — the subgraph must never
// be empty for a failing chip.
func (g *Graph) Backtrace(log *failurelog.Log, res *sim.Result) *Subgraph {
	sg, _ := g.BacktraceCtx(context.Background(), log, res)
	return sg
}

// ctxCheckStride bounds how many sweep pops may pass between context
// checks: frequent enough that a cancelled backtrace over a multi-million
// node cone stops within microseconds, rare enough to stay off the profile.
const ctxCheckStride = 4096

// BacktraceCtx is Backtrace with cooperative cancellation: the vote sweep
// checks ctx on entry and periodically, so a backtrace over a large cone
// stops promptly when the request deadline expires. On cancellation it
// returns a nil subgraph and ctx's error.
func (g *Graph) BacktraceCtx(ctx context.Context, log *failurelog.Log, res *sim.Result) (*Subgraph, error) {
	defer obs.Start(ctx, "hgraph.backtrace").End()
	// Fails outside the simulated pattern set or the observation space
	// (mismatched or noisy tester logs) cannot be back-traced; drop them
	// rather than index out of range.
	log, _ = log.Sanitized(res.N, g.arch.NumObs(log.Compacted))
	if log.Empty() {
		return &Subgraph{X: mat.New(0, FeatureDim)}, nil
	}
	count, err := g.votes(ctx, log, res)
	if err != nil {
		return nil, err
	}
	return g.subgraphFromVotes(count, len(log.Fails)), nil
}

// votes counts, per pin node, the failing responses of a sanitized log in
// whose fan-in cone the node transitions, in one reverse-topological sweep
// over the union of the failing observations' cones (cone.Sweep). The
// sweep runs over gates: an input pin's only sink is its gate's output
// pin, so both carry the gate's entry set. A Topnode (a flop's data pin or
// a PO's input pin) carries its observation's entries and passes them
// straight to its driver's output pin; a flop's output pin has no fan-in,
// so the sweep stops there.
func (g *Graph) votes(ctx context.Context, log *failurelog.Log, res *sim.Result) ([]int32, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("hgraph: backtrace: %w", err)
	}
	sw := cone.NewSweep(g.Netlist(), log, res)
	count := make([]int32, g.NumNodes)
	for i := range sw.NumObs() {
		o, set := sw.Observation(i)
		for _, obsGate := range g.arch.ObsGates(int(o), log.Compacted) {
			top := g.InNode[obsGate][0]
			driver := int(g.NodeDriver[top])
			count[top] += sw.Count(driver, set)
			sw.Or(driver, set)
		}
	}
	for pops := 1; ; pops++ {
		if pops%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("hgraph: backtrace: %w", err)
			}
		}
		gate, set := sw.Pop()
		if gate < 0 {
			return count, nil
		}
		out := g.OutNode[gate]
		count[out] += sw.Count(int(g.NodeDriver[out]), set)
		for _, in := range g.Fanin[out] {
			driver := int(g.NodeDriver[in])
			count[in] += sw.Count(driver, set)
			sw.Or(driver, set)
		}
	}
}

// subgraphFromVotes intersects the per-response suspect sets and extracts
// the induced subgraph (Table-II features): it picks the nodes voted by
// every one of the responses, relaxing the threshold progressively when
// none is. It is the final stage of BacktraceCtx.
func (g *Graph) subgraphFromVotes(count []int32, responses int) *Subgraph {
	var picked []int32
	for _, frac := range []float64{1.0, 0.8, 0.5, 0.0} {
		need := int32(frac * float64(responses))
		if need < 1 {
			need = 1
		}
		for v := int32(0); v < int32(g.NumNodes); v++ {
			if count[v] >= need {
				picked = append(picked, v)
			}
		}
		if len(picked) > 0 {
			break
		}
	}
	return g.subgraph(picked)
}

// subgraph builds the induced subgraph with Table-II features.
func (g *Graph) subgraph(nodes []int32) *Subgraph {
	local := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		local[v] = int32(i)
	}
	s := &Subgraph{
		Nodes:  nodes,
		Adj:    make([][]int32, len(nodes)),
		X:      mat.New(len(nodes), FeatureDim),
		TierOf: make([]float64, len(nodes)),
	}
	n := g.Netlist()
	subFi := make([]int, len(nodes))
	subFo := make([]int, len(nodes))
	for i, v := range nodes {
		for _, u := range g.Fanin[v] {
			if j, ok := local[u]; ok {
				s.Adj[i] = append(s.Adj[i], j)
				subFi[i]++
				subFo[j]++
			}
		}
		for _, u := range g.Fanout[v] {
			if j, ok := local[u]; ok {
				s.Adj[i] = append(s.Adj[i], j)
			}
		}
		gate := n.Gates[g.NodeGate[v]]
		if gate.IsMIV && g.isOutPin(v) {
			s.MIVLocal = append(s.MIVLocal, int32(i))
			s.MIVGates = append(s.MIVGates, gate.ID)
		}
		s.TierOf[i] = g.loc(gate)
	}
	for i, v := range nodes {
		row := s.X.Row(i)
		g.staticFeatureRow(v, row)
		row[7] = float64(subFi[i])
		row[8] = float64(subFo[i])
	}
	return s
}

// FeatureSummary returns the mean feature vector of a subgraph — the
// per-sample descriptor used for the PCA transferability analysis (Fig. 5).
func (s *Subgraph) FeatureSummary() []float64 {
	return s.X.ColMeans()
}

// TrueTier returns the tier label (0-based) for a ground-truth fault site
// gate, and ok=false for MIV sites (which belong to no tier).
func TrueTier(n *netlist.Netlist, siteGate int) (int, bool) {
	g := n.Gates[siteGate]
	if g.IsMIV || g.Tier < 0 {
		return 0, false
	}
	return int(g.Tier), true
}

// ContainsGate reports whether any pin node of the gate is in the subgraph.
func (s *Subgraph) ContainsGate(g *Graph, gate int) bool {
	for _, v := range s.Nodes {
		if int(g.NodeGate[v]) == gate {
			return true
		}
	}
	return false
}

// LocalMIVGate returns the netlist gate ID of a local MIV node index.
func (s *Subgraph) LocalMIVGate(g *Graph, localIdx int32) int {
	return int(g.NodeGate[s.Nodes[localIdx]])
}

package policy

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/diagnosis"
	"repro/internal/faultsim"
	"repro/internal/gnn"
	"repro/internal/hgraph"
	"repro/internal/mat"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/scan"
)

func scanBuild(n *netlist.Netlist) (*scan.Arch, error) { return scan.Build(n, 1, 1) }

// tinyM3D builds a 2-gate-per-tier netlist with one MIV.
func tinyM3D(t *testing.T) *netlist.Netlist {
	t.Helper()
	n := netlist.New("tiny")
	a := n.AddGate("a", netlist.Input)
	b := n.AddGate("b", netlist.Input)
	g0 := n.AddGate("g0", netlist.And, a, b)    // bottom
	g1 := n.AddGate("g1", netlist.Or, a, b)     // bottom
	miv := n.AddGate("m0", netlist.Buf, g0)     // crossing
	g2 := n.AddGate("g2", netlist.Xor, miv, g1) // top... g1 crossing ignored for test
	g3 := n.AddGate("g3", netlist.Not, g2)      // top
	n.AddGate("o", netlist.Output, g3)
	n.Gates[g0].Tier = netlist.TierBottom
	n.Gates[g1].Tier = netlist.TierBottom
	n.Gates[miv].IsMIV = true
	n.Gates[miv].Tier = netlist.TierNone
	n.Gates[g2].Tier = netlist.TierTop
	n.Gates[g3].Tier = netlist.TierTop
	if err := n.Levelize(); err != nil {
		t.Fatal(err)
	}
	return n
}

func cand(gate int, score float64) diagnosis.Candidate {
	return diagnosis.Candidate{
		Fault: faultsim.Fault{Gate: gate, Pin: faultsim.OutputPin, Pol: faultsim.SlowToRise},
		TFSF:  1, Score: score,
	}
}

// fakeTier is a Tier-predictor stub wrapping fixed output probabilities.
func fakeTier(pTop float64) *gnn.TierPredictor {
	// A 0-hidden-layer model cannot be constructed through the public
	// API, so instead build a real predictor and bias its output via the
	// dense head on an empty embedding; simpler: use a 1-layer model and
	// set the output bias so softmax yields ~pTop regardless of input.
	tp := gnn.NewTierPredictor(1)
	tp.Model.Scale = gnn.FitScaler([]*mat.Matrix{mat.New(1, hgraph.FeatureDim)})
	// Zero all weights; set biases for a constant logit.
	for _, l := range tp.Model.Layers {
		for i := range l.W.Data {
			l.W.Data[i] = 0
		}
		for i := range l.B {
			l.B[i] = 0
		}
	}
	for i := range tp.Model.Out.W.Data {
		tp.Model.Out.W.Data[i] = 0
	}
	logit := 0.0
	if pTop >= 0.5 {
		logit = 4 // ~0.98 top
	} else {
		logit = -4
	}
	tp.Model.Out.B[gnn.TierTopClass] = logit
	tp.Model.Out.B[gnn.TierBottomClass] = -logit
	return tp
}

func someSubgraph(n int) *hgraph.Subgraph {
	sg := &hgraph.Subgraph{
		Nodes:  make([]int32, n),
		Adj:    make([][]int32, n),
		X:      mat.New(n, hgraph.FeatureDim),
		TierOf: make([]float64, n),
	}
	return sg
}

func TestApplyPrunesOffTier(t *testing.T) {
	n := tinyM3D(t)
	g := &hgraph.Graph{}
	_ = g
	// Graph is only used for Netlist() and MIV prediction; build a real one.
	// For these mechanics tests a minimal arch-free graph is unnecessary —
	// construct via the test-only path: use a policy with DisableMIV.
	pol := &Policy{
		Tier:       fakeTier(0.98), // confident "top"
		TP:         0.9,
		Graph:      graphFor(t, n),
		DisableMIV: true,
	}
	rep := &diagnosis.Report{Candidates: []diagnosis.Candidate{
		cand(n.GateByName("g2"), 5), // top
		cand(n.GateByName("g0"), 4), // bottom
		cand(n.GateByName("g3"), 3), // top
	}}
	out := pol.Apply(rep, someSubgraph(3))
	if !out.Pruned {
		t.Fatal("high confidence with nil classifier must prune")
	}
	if len(out.Report.Candidates) != 2 {
		t.Fatalf("pruned report has %d candidates", len(out.Report.Candidates))
	}
	for _, c := range out.Report.Candidates {
		if n.Gates[c.Fault.Gate].Tier != netlist.TierTop {
			t.Fatal("bottom-tier candidate survived pruning")
		}
	}
	if len(out.Backup) != 1 || out.Backup[0].Fault.Gate != n.GateByName("g0") {
		t.Fatalf("backup dictionary wrong: %v", out.Backup)
	}
}

func TestApplyReordersOnLowConfidence(t *testing.T) {
	n := tinyM3D(t)
	pol := &Policy{
		Tier:       fakeTier(0.98),
		TP:         0.99999, // unreachable: always low confidence
		Graph:      graphFor(t, n),
		DisableMIV: true,
	}
	rep := &diagnosis.Report{Candidates: []diagnosis.Candidate{
		cand(n.GateByName("g0"), 5), // bottom (off-tier)
		cand(n.GateByName("g2"), 4), // top
	}}
	out := pol.Apply(rep, someSubgraph(3))
	if out.Pruned {
		t.Fatal("low confidence must not prune")
	}
	if len(out.Report.Candidates) != 2 {
		t.Fatal("reordering must keep all candidates")
	}
	if out.Report.Candidates[0].Fault.Gate != n.GateByName("g2") {
		t.Fatal("predicted-tier candidate should move to top")
	}
}

func TestMIVEffectiveTierAndProtection(t *testing.T) {
	n := tinyM3D(t)
	miv := n.GateByName("m0")
	// effectiveTier: MIV inherits driver (g0, bottom).
	if effectiveTier(n, miv) != 0 {
		t.Fatal("MIV should inherit driver tier")
	}
	// Pinned MIV candidates survive a prune to the other tier.
	pol := &Policy{
		Tier:  fakeTier(0.98), // predicts top; MIV effective tier is bottom
		TP:    0.9,
		Graph: graphFor(t, n),
		MIV:   alwaysFaultyMIV(t, n),
	}
	sg := subgraphWithMIV(n, miv)
	rep := &diagnosis.Report{Candidates: []diagnosis.Candidate{
		cand(n.GateByName("g2"), 5),
		cand(miv, 4),
	}}
	out := pol.Apply(rep, sg)
	if !out.Pruned {
		t.Fatal("expected prune")
	}
	found := false
	for _, c := range out.Report.Candidates {
		if c.Fault.Gate == miv {
			found = true
		}
	}
	if !found {
		t.Fatal("flagged MIV candidate was pruned")
	}
	if out.Report.Candidates[0].Fault.Gate != miv {
		t.Fatal("flagged MIV should be pinned to the top of the report")
	}
}

// alwaysFaultyMIV builds a pinpointer whose output bias forces class 1.
func alwaysFaultyMIV(t *testing.T, n *netlist.Netlist) *gnn.MIVPinpointer {
	t.Helper()
	mp := gnn.NewMIVPinpointer(1)
	mp.Model.Scale = gnn.FitScaler([]*mat.Matrix{mat.New(1, hgraph.FeatureDim)})
	for _, l := range mp.Model.Layers {
		for i := range l.W.Data {
			l.W.Data[i] = 0
		}
	}
	for i := range mp.Model.Out.W.Data {
		mp.Model.Out.W.Data[i] = 0
	}
	mp.Model.Out.B[0] = -4
	mp.Model.Out.B[1] = 4
	return mp
}

func subgraphWithMIV(n *netlist.Netlist, miv int) *hgraph.Subgraph {
	sg := someSubgraph(2)
	sg.MIVLocal = []int32{0}
	sg.MIVGates = []int{miv}
	sg.TierOf[0] = 0.5
	return sg
}

// graphFor builds a minimal hgraph.Graph carrying just the netlist (the
// policy only dereferences Netlist() and passes the graph to the
// pinpointer, which reads subgraph-local data).
func graphFor(t *testing.T, n *netlist.Netlist) *hgraph.Graph {
	t.Helper()
	// Build requires a scan arch; give the netlist a flop if it has none.
	if len(n.FFs) == 0 {
		ff := n.AddGate("ffx", netlist.DFF)
		n.Connect(ff, n.PIs[0])
		if err := n.Levelize(); err != nil {
			t.Fatal(err)
		}
	}
	arch, err := scanBuild(n)
	if err != nil {
		t.Fatal(err)
	}
	return hgraph.Build(arch, 0)
}

func TestOversampleBalances(t *testing.T) {
	var samples []gnn.GraphSample
	for i := 0; i < 20; i++ {
		samples = append(samples, gnn.GraphSample{SG: someSubgraphRand(i), Label: 1})
	}
	for i := 0; i < 3; i++ {
		samples = append(samples, gnn.GraphSample{SG: someSubgraphRand(100 + i), Label: 0})
	}
	out := Oversample(samples, 7)
	counts := map[int]int{}
	for _, s := range out {
		counts[s.Label]++
	}
	if counts[0] != counts[1] {
		t.Fatalf("not balanced: %v", counts)
	}
	// Synthetic samples have one extra node relative to their source
	// (the pool cycles through minority samples in order).
	synthIdx := len(out) - 1
	nSynth := synthIdx - len(samples) // index among synthetics
	src := samples[20+nSynth%3]
	if out[synthIdx].SG.NumNodes() != src.SG.NumNodes()+1 {
		t.Fatalf("dummy buffer not appended: %d vs %d",
			out[synthIdx].SG.NumNodes(), src.SG.NumNodes())
	}
}

func someSubgraphRand(seed int) *hgraph.Subgraph {
	n := 3 + seed%4
	sg := someSubgraph(n)
	for i := 1; i < n; i++ {
		sg.Adj[i] = append(sg.Adj[i], int32(i-1))
		sg.Adj[i-1] = append(sg.Adj[i-1], int32(i))
	}
	return sg
}

func TestInsertDummyBufferPreservesOriginal(t *testing.T) {
	sg := someSubgraphRand(5)
	orig := sg.NumNodes()
	out := InsertDummyBuffer(sg, 1)
	if sg.NumNodes() != orig {
		t.Fatal("original mutated")
	}
	if out.NumNodes() != orig+1 {
		t.Fatal("no node added")
	}
	// New node connected to node 1 bidirectionally.
	last := int32(out.NumNodes() - 1)
	foundFwd, foundBack := false, false
	for _, u := range out.Adj[1] {
		if u == last {
			foundFwd = true
		}
	}
	for _, u := range out.Adj[last] {
		if u == 1 {
			foundBack = true
		}
	}
	if !foundFwd || !foundBack {
		t.Fatal("buffer not wired")
	}
}

func TestDeriveTP(t *testing.T) {
	conf := []float64{0.99, 0.95, 0.9, 0.8, 0.7}
	correct := []bool{true, true, true, false, true}
	tp := DeriveTP(conf, correct, 0.99)
	if tp != 0.9 {
		t.Fatalf("TP = %v want 0.9", tp)
	}
}

// TestPolicyConservationProperty: for any report, the updated report plus
// the backup dictionary is a permutation of the input candidates — the
// policy never invents or silently drops candidates.
func TestPolicyConservationProperty(t *testing.T) {
	n := tinyM3D(t)
	g := graphFor(t, n)
	gates := []int{n.GateByName("g0"), n.GateByName("g1"), n.GateByName("g2"),
		n.GateByName("g3"), n.GateByName("m0")}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var cands []diagnosis.Candidate
		for i := 0; i < 1+rng.Intn(8); i++ {
			cands = append(cands, cand(gates[rng.Intn(len(gates))], float64(10-i)))
		}
		pol := &Policy{
			Tier:  fakeTier(0.98),
			TP:    []float64{0.5, 0.99999}[rng.Intn(2)],
			Graph: g,
			MIV:   alwaysFaultyMIV(t, n),
		}
		sg := subgraphWithMIV(n, n.GateByName("m0"))
		out := pol.Apply(&diagnosis.Report{Candidates: cands}, sg)
		if len(out.Report.Candidates)+len(out.Backup) != len(cands) {
			return false
		}
		// Multiset equality by gate ID.
		count := map[int]int{}
		for _, c := range cands {
			count[c.Fault.Gate]++
		}
		for _, c := range out.Report.Candidates {
			count[c.Fault.Gate]--
		}
		for _, c := range out.Backup {
			count[c.Fault.Gate]--
		}
		for _, v := range count {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestApplyCtxRecordsForwardHistograms checks that every GNN forward pass
// executed by ApplyCtx lands in the per-model m3d_gnn_forward_seconds
// histogram of the context's registry, and that a bare context (no
// registry) still works and records nothing.
func TestApplyCtxRecordsForwardHistograms(t *testing.T) {
	n := tinyM3D(t)
	pol := &Policy{
		Tier:       fakeTier(0.98),
		TP:         0.9,
		Graph:      graphFor(t, n),
		DisableMIV: true,
	}
	rep := &diagnosis.Report{Candidates: []diagnosis.Candidate{cand(n.GateByName("g2"), 5)}}

	reg := obs.NewRegistry()
	ctx := obs.WithRegistry(context.Background(), reg)
	pol.ApplyCtx(ctx, rep, someSubgraph(3))
	pol.ApplyCtx(ctx, rep, someSubgraph(3))
	tierHist := reg.Histogram(ForwardHistogram, obs.DurationBuckets, "model", "tier")
	if got := tierHist.Count(); got != 2 {
		t.Fatalf("tier forward histogram count = %d, want 2", got)
	}
	// DisableMIV and nil Cls: no miv/cls observations.
	if got := reg.Histogram(ForwardHistogram, obs.DurationBuckets, "model", "miv").Count(); got != 0 {
		t.Fatalf("miv forward histogram count = %d, want 0", got)
	}
	if got := reg.Histogram(ForwardHistogram, obs.DurationBuckets, "model", "cls").Count(); got != 0 {
		t.Fatalf("cls forward histogram count = %d, want 0", got)
	}

	// Classifier path records under model="cls".
	pol.Cls = fakeCls(t)
	pol.ApplyCtx(ctx, rep, someSubgraph(3))
	if got := reg.Histogram(ForwardHistogram, obs.DurationBuckets, "model", "cls").Count(); got != 1 {
		t.Fatalf("cls forward histogram count = %d, want 1", got)
	}

	// No registry on the context: must not panic, results identical.
	out := pol.ApplyCtx(context.Background(), rep, someSubgraph(3))
	if out == nil || len(out.Report.Candidates) != 1 {
		t.Fatal("ApplyCtx without registry produced wrong outcome")
	}
}

// fakeCls builds a Classifier stub with zeroed weights (uniform output).
func fakeCls(t *testing.T) *gnn.Classifier {
	t.Helper()
	tp := fakeTier(0.98)
	return gnn.NewClassifier(tp, 2)
}

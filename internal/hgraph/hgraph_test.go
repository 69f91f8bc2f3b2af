package hgraph

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/atpg"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/netlist"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

type fixture struct {
	g    *Graph
	s    *sim.Simulator
	eng  *faultsim.Engine
	ps   *sim.PatternSet
	res  *sim.Result
	arch *scan.Arch
}

var cached *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if cached != nil {
		return cached
	}
	p, _ := gen.ProfileByName("aes")
	p = p.Scaled(0.08)
	n := gen.Generate(p, 1)
	m3d, err := partition.Partition(n, partition.FM, partition.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := atpg.Generate(m3d, atpg.Options{Seed: 3, TargetCoverage: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := scan.Build(m3d, p.ScanChains, p.CompactionRatio)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(m3d)
	if err != nil {
		t.Fatal(err)
	}
	res := s.Run(ares.Patterns)
	cached = &fixture{
		g:    Build(arch, 0),
		s:    s,
		eng:  faultsim.NewEngine(s),
		ps:   ares.Patterns,
		res:  res,
		arch: arch,
	}
	return cached
}

func (f *fixture) injectLog(t *testing.T, fault faultsim.Fault, compacted bool) *failurelog.Log {
	t.Helper()
	diff := f.eng.Diff(f.res, []faultsim.Fault{fault})
	return &failurelog.Log{
		Design:    f.g.Netlist().Name,
		Compacted: compacted,
		Fails:     f.arch.FailuresFromDiff(diff, f.ps.N, compacted),
	}
}

func TestBuildNodeCounts(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	wantNodes := 0
	for _, gate := range n.Gates {
		wantNodes += 1 + len(gate.Fanin)
	}
	if f.g.NumNodes != wantNodes {
		t.Fatalf("NumNodes = %d want %d", f.g.NumNodes, wantNodes)
	}
	if len(f.g.TopFF) != len(n.FFs) || len(f.g.TopPO) != len(n.POs) {
		t.Fatal("Topnode counts wrong")
	}
}

func TestPinEdgesStructure(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	// Pick a 2-input logic gate and verify its pin wiring.
	for _, gate := range n.Gates {
		if gate.Type != netlist.Xor || len(gate.Fanin) != 2 {
			continue
		}
		out := f.g.OutNode[gate.ID]
		if len(f.g.Fanin[out]) != 2 {
			t.Fatalf("xor output pin should have 2 fanin pin-edges, got %d", len(f.g.Fanin[out]))
		}
		for p, src := range gate.Fanin {
			in := f.g.InNode[gate.ID][p]
			if len(f.g.Fanin[in]) != 1 || f.g.Fanin[in][0] != f.g.OutNode[src] {
				t.Fatal("stem->branch edge missing")
			}
		}
		return
	}
	t.Skip("no 2-input xor found")
}

func TestDFFFrameBoundary(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	ff := n.FFs[0]
	in := f.g.InNode[ff][0]
	// The flop's data pin must not forward into the flop's output pin.
	for _, u := range f.g.Fanout[in] {
		if u == f.g.OutNode[ff] {
			t.Fatal("DFF data pin crosses the frame boundary")
		}
	}
	// The flop output pin is a source: no fanin.
	if len(f.g.Fanin[f.g.OutNode[ff]]) != 0 {
		t.Fatal("DFF output pin has fanin")
	}
}

func TestTopedgeStatsConsistency(t *testing.T) {
	f := getFixture(t)
	// NTop of a Topnode's direct source must be >= 1, and every node with
	// NTop>0 has non-negative stats with std defined.
	seen := 0
	for v := 0; v < f.g.NumNodes; v++ {
		if f.g.NTop[v] == 0 {
			continue
		}
		seen++
		if f.g.DMean[v] < 0 || f.g.DStd[v] < 0 || f.g.MIVMean[v] < 0 || f.g.MIVStd[v] < 0 {
			t.Fatalf("negative topedge stats at node %d", v)
		}
	}
	if seen == 0 {
		t.Fatal("no node covered by any Topnode")
	}
	// A Topnode covers itself at distance 0.
	top := f.g.TopFF[0]
	if f.g.NTop[top] < 1 {
		t.Fatal("Topnode not covered by itself")
	}
}

func TestBacktraceContainsFaultSite(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	faults := faultsim.AllFaults(n)
	rng := rand.New(rand.NewSource(5))
	hits, total := 0, 0
	for total < 25 {
		fault := faults[rng.Intn(len(faults))]
		log := f.injectLog(t, fault, false)
		if len(log.Fails) == 0 {
			continue
		}
		total++
		sg := f.g.Backtrace(log, f.res)
		if sg.NumNodes() == 0 {
			t.Fatal("empty subgraph for failing chip")
		}
		if sg.ContainsGate(f.g, fault.SiteGate(n)) {
			hits++
		}
	}
	if hits < total*8/10 {
		t.Fatalf("back-trace missed the fault site too often: %d/%d", hits, total)
	}
}

func TestBacktraceCompactedLarger(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	faults := faultsim.AllFaults(n)
	rng := rand.New(rand.NewSource(7))
	sumU, sumC, trials := 0, 0, 0
	for trials < 15 {
		fault := faults[rng.Intn(len(faults))]
		logU := f.injectLog(t, fault, false)
		logC := f.injectLog(t, fault, true)
		if len(logU.Fails) == 0 || len(logC.Fails) == 0 {
			continue
		}
		trials++
		sgU := f.g.Backtrace(logU, f.res)
		sgC := f.g.Backtrace(logC, f.res)
		sumU += sgU.NumNodes()
		sumC += sgC.NumNodes()
	}
	if sumC < sumU {
		t.Fatalf("compacted subgraphs (%d) should not be smaller than bypass (%d)", sumC, sumU)
	}
}

func TestSubgraphFeatures(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	faults := faultsim.AllFaults(n)
	rng := rand.New(rand.NewSource(9))
	for trials := 0; trials < 10; {
		fault := faults[rng.Intn(len(faults))]
		log := f.injectLog(t, fault, false)
		if len(log.Fails) == 0 {
			continue
		}
		trials++
		sg := f.g.Backtrace(log, f.res)
		if sg.X.Rows != sg.NumNodes() || sg.X.Cols != FeatureDim {
			t.Fatalf("feature matrix %dx%d for %d nodes", sg.X.Rows, sg.X.Cols, sg.NumNodes())
		}
		for i := 0; i < sg.X.Rows; i++ {
			row := sg.X.Row(i)
			// Subgraph degrees cannot exceed circuit degrees.
			if row[7] > row[0] || row[8] > row[1] {
				t.Fatalf("subgraph degree exceeds circuit degree: %v", row)
			}
			if row[3] != 0 && row[3] != 1 && row[3] != 0.5 {
				t.Fatalf("bad tier feature %v", row[3])
			}
			if row[5] != 0 && row[5] != 1 {
				t.Fatalf("bad out feature %v", row[5])
			}
		}
		sum := sg.FeatureSummary()
		if len(sum) != FeatureDim {
			t.Fatal("feature summary dim")
		}
	}
}

func TestSubgraphMIVNodes(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	mivFaults := faultsim.MIVFaults(n)
	found := false
	for _, fault := range mivFaults[:min(40, len(mivFaults))] {
		log := f.injectLog(t, fault, false)
		if len(log.Fails) == 0 {
			continue
		}
		sg := f.g.Backtrace(log, f.res)
		for _, li := range sg.MIVLocal {
			if sg.LocalMIVGate(f.g, li) == fault.Gate {
				found = true
			}
			if sg.TierOf[li] != 0.5 {
				t.Fatal("MIV node tier feature must be 0.5")
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no back-traced subgraph contained the faulty MIV node")
	}
}

func TestTrueTier(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	sawTop, sawBottom := false, false
	for _, g := range n.Gates {
		tier, ok := TrueTier(n, g.ID)
		if g.IsMIV && ok {
			t.Fatal("MIV should have no tier label")
		}
		if ok && tier == 1 {
			sawTop = true
		}
		if ok && tier == 0 {
			sawBottom = true
		}
	}
	if !sawTop || !sawBottom {
		t.Fatal("expected gates in both tiers")
	}
}

func TestEmptyLogSubgraph(t *testing.T) {
	f := getFixture(t)
	sg := f.g.Backtrace(&failurelog.Log{}, f.res)
	if sg.NumNodes() != 0 {
		t.Fatal("empty log must give empty subgraph")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestBacktraceCtxCancelled asserts an expired context aborts the
// backtrace with an error while a live context reproduces Backtrace.
func TestBacktraceCtxCancelled(t *testing.T) {
	fx := getFixture(t)
	var log *failurelog.Log
	for _, f := range faultsim.AllFaults(fx.g.Netlist()) {
		if l := fx.injectLog(t, f, false); !l.Empty() {
			log = l
			break
		}
	}
	if log == nil {
		t.Fatal("no detectable fault")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sg, err := fx.g.BacktraceCtx(ctx, log, fx.res)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("BacktraceCtx err = %v, want context.Canceled", err)
	}
	if sg != nil {
		t.Fatal("cancelled BacktraceCtx returned a subgraph")
	}
	want := fx.g.Backtrace(log, fx.res)
	got, err := fx.g.BacktraceCtx(context.Background(), log, fx.res)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("ctx path %d nodes != plain %d", got.NumNodes(), want.NumNodes())
	}
}

// TestNodeTransitionsFollowPins checks the flat driver lookup against the
// pin semantics it encodes: an output pin switches with its gate (a PO's
// with the PO's driver), an input pin with the gate on that fanin.
func TestNodeTransitionsFollowPins(t *testing.T) {
	f := getFixture(t)
	n := f.g.Netlist()
	for _, gate := range n.Gates {
		out := gate.ID
		if gate.Type == netlist.Output {
			out = gate.Fanin[0]
		}
		pins := map[int32]int{f.g.OutNode[gate.ID]: out}
		for p, v := range f.g.InNode[gate.ID] {
			pins[v] = gate.Fanin[p]
		}
		for v, driver := range pins {
			if f.g.isOutPin(v) != (v == f.g.OutNode[gate.ID]) {
				t.Fatalf("node %d of gate %d: isOutPin wrong", v, gate.ID)
			}
			for k := 0; k < f.res.N; k++ {
				if f.g.nodeTransitions(f.res, v, k) != f.res.HasTransition(driver, k) {
					t.Fatalf("node %d of gate %d pattern %d: transition mismatch", v, gate.ID, k)
				}
			}
		}
	}
}

package diagnosis

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/atpg"
	"repro/internal/failurelog"
	"repro/internal/faultsim"
	"repro/internal/gen"
	"repro/internal/partition"
	"repro/internal/scan"
	"repro/internal/sim"
)

// fixture builds a small partitioned design with patterns and a diagnosis
// engine, shared across tests in this package.
type fixture struct {
	eng    *Engine
	faults []faultsim.Fault
}

var fixtures = map[string]*fixture{}

func getFixture(t *testing.T, scale float64, seed int64) *fixture {
	t.Helper()
	key := "aes"
	if f, ok := fixtures[key]; ok {
		return f
	}
	p, _ := gen.ProfileByName("aes")
	p = p.Scaled(scale)
	n := gen.Generate(p, seed)
	m3d, err := partition.Partition(n, partition.FM, partition.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ares, err := atpg.Generate(m3d, atpg.Options{Seed: seed, TargetCoverage: 0.97})
	if err != nil {
		t.Fatal(err)
	}
	arch, err := scan.Build(m3d, p.ScanChains, p.CompactionRatio)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(arch, ares.Patterns, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{eng: eng, faults: faultsim.AllFaults(m3d)}
	fixtures[key] = f
	return f
}

// detectableFaults returns injectable faults that actually produce
// failures in the given mode.
func detectableFaults(fx *fixture, compacted bool, limit int, seed int64) []faultsim.Fault {
	rng := rand.New(rand.NewSource(seed))
	var out []faultsim.Fault
	perm := rng.Perm(len(fx.faults))
	for _, i := range perm {
		if len(out) >= limit {
			break
		}
		f := fx.faults[i]
		log := fx.eng.InjectLog([]faultsim.Fault{f}, compacted)
		if !log.Empty() {
			out = append(out, f)
		}
	}
	return out
}

func TestDiagnoseFindsInjectedFault(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	n := fx.eng.Arch().Netlist()
	hits, total := 0, 0
	var resolutions []int
	for _, f := range detectableFaults(fx, false, 30, 5) {
		log := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		rep := fx.eng.Diagnose(log)
		total++
		if rep.Accurate(n, []faultsim.Fault{f}) {
			hits++
		}
		resolutions = append(resolutions, rep.Resolution())
	}
	if total == 0 {
		t.Fatal("no detectable faults found")
	}
	if float64(hits)/float64(total) < 0.9 {
		t.Fatalf("accuracy %d/%d below 90%%", hits, total)
	}
	for _, r := range resolutions {
		if r == 0 {
			t.Fatal("empty report for a failing chip")
		}
	}
}

func TestDiagnoseCompactedStillAccurate(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	n := fx.eng.Arch().Netlist()
	hits, total := 0, 0
	sumResUncomp, sumResComp := 0, 0
	for _, f := range detectableFaults(fx, true, 25, 9) {
		logC := fx.eng.InjectLog([]faultsim.Fault{f}, true)
		logU := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		repC := fx.eng.Diagnose(logC)
		repU := fx.eng.Diagnose(logU)
		total++
		if repC.Accurate(n, []faultsim.Fault{f}) {
			hits++
		}
		sumResComp += repC.Resolution()
		sumResUncomp += repU.Resolution()
	}
	if total == 0 {
		t.Fatal("no detectable faults")
	}
	if float64(hits)/float64(total) < 0.8 {
		t.Fatalf("compacted accuracy %d/%d below 80%%", hits, total)
	}
	// Compaction must not substantially *improve* aggregate resolution
	// (small-sample noise allowed at this tiny fixture scale).
	if float64(sumResComp) < 0.75*float64(sumResUncomp) {
		t.Fatalf("compacted resolution %d much better than uncompacted %d", sumResComp, sumResUncomp)
	}
}

func TestFirstHitAndRanking(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	n := fx.eng.Arch().Netlist()
	sumFHI, sumRes, cnt := 0, 0, 0
	for _, f := range detectableFaults(fx, false, 20, 11) {
		log := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		rep := fx.eng.Diagnose(log)
		fhi := rep.FirstHit(n, []faultsim.Fault{f})
		if fhi == 0 {
			continue
		}
		sumFHI += fhi
		sumRes += rep.Resolution()
		cnt++
	}
	if cnt == 0 {
		t.Fatal("no hits")
	}
	// The ground truth should rank well above the midpoint on average.
	if float64(sumFHI)/float64(cnt) > float64(sumRes)/float64(cnt) {
		t.Fatalf("mean FHI %.1f worse than mean resolution %.1f",
			float64(sumFHI)/float64(cnt), float64(sumRes)/float64(cnt))
	}
}

func TestDiagnoseEmptyLog(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	rep := fx.eng.Diagnose(fx.eng.InjectLog(nil, false))
	if rep.Resolution() != 0 {
		t.Fatal("empty log must produce empty report")
	}
}

func TestPerfectCandidateScoresHighest(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	for _, f := range detectableFaults(fx, false, 5, 13) {
		if f.Pin != faultsim.OutputPin {
			continue // output faults have exact candidate twins
		}
		log := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		rep := fx.eng.Diagnose(log)
		if len(rep.Candidates) == 0 {
			t.Fatal("empty report")
		}
		top := rep.Candidates[0]
		if top.TFSP != 0 {
			t.Fatalf("top candidate for %v leaves %d failures unexplained", f, top.TFSP)
		}
	}
}

func TestDiagnoseMultiCoversAllFaults(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	n := fx.eng.Arch().Netlist()
	rng := rand.New(rand.NewSource(17))
	okCnt, total := 0, 0
	for trial := 0; trial < 12; trial++ {
		// 2-3 faults in the same tier (the paper's systematic-defect model).
		tier := int8(trial % 2)
		var fs []faultsim.Fault
		for len(fs) < 2+trial%2 {
			f := fx.faults[rng.Intn(len(fx.faults))]
			if n.Gates[f.SiteGate(n)].Tier != tier {
				continue
			}
			if log := fx.eng.InjectLog([]faultsim.Fault{f}, false); log.Empty() {
				continue
			}
			fs = append(fs, f)
		}
		log := fx.eng.InjectLog(fs, false)
		if log.Empty() {
			continue
		}
		rep := fx.eng.DiagnoseMulti(log)
		total++
		if rep.Accurate(n, fs) {
			okCnt++
		}
	}
	if total == 0 {
		t.Fatal("no multi-fault trials")
	}
	// Multi-fault diagnosis is hard; demand a loose floor only.
	if float64(okCnt)/float64(total) < 0.3 {
		t.Fatalf("multi-fault accuracy %d/%d below floor", okCnt, total)
	}
}

func TestInjectLogDeterministic(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	fs := detectableFaults(fx, false, 1, 19)
	if len(fs) == 0 {
		t.Skip("no detectable fault")
	}
	a := fx.eng.InjectLog(fs, false)
	b := fx.eng.InjectLog(fs, false)
	if len(a.Fails) != len(b.Fails) {
		t.Fatal("nondeterministic injection")
	}
	for i := range a.Fails {
		if a.Fails[i] != b.Fails[i] {
			t.Fatal("fails differ")
		}
	}
}

func TestSim64PatternAlignmentInvariant(t *testing.T) {
	// Guard against tail-bit leakage through the whole stack: injecting a
	// fault into a design with a non-multiple-of-64 pattern count must not
	// produce failures beyond N.
	fx := getFixture(t, 0.1, 1)
	N := fx.eng.ps.N
	for _, f := range detectableFaults(fx, false, 10, 23) {
		log := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		for _, fl := range log.Fails {
			if int(fl.Pattern) >= N {
				t.Fatalf("failure at pattern %d beyond N=%d", fl.Pattern, N)
			}
		}
	}
}

var _ = sim.GetBit // keep sim imported for auxiliary helpers

// TestReportInvariants checks structural invariants on every generated
// report: FirstHit is within [0, resolution], accuracy coincides with a
// positive FirstHit for single faults, candidates are unique, and scores
// are non-increasing within equal-score hash order.
func TestReportInvariants(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	n := fx.eng.Arch().Netlist()
	for _, f := range detectableFaults(fx, false, 25, 31) {
		log := fx.eng.InjectLog([]faultsim.Fault{f}, false)
		rep := fx.eng.Diagnose(log)
		fhi := rep.FirstHit(n, []faultsim.Fault{f})
		if fhi < 0 || fhi > rep.Resolution() {
			t.Fatalf("FHI %d outside [0,%d]", fhi, rep.Resolution())
		}
		if rep.Accurate(n, []faultsim.Fault{f}) != (fhi > 0) {
			t.Fatal("Accurate and FirstHit disagree")
		}
		seen := map[faultsim.Fault]bool{}
		prev := rep.Candidates
		for i, c := range prev {
			if seen[c.Fault] {
				t.Fatalf("duplicate candidate %v", c.Fault)
			}
			seen[c.Fault] = true
			if i > 0 && c.Score > prev[i-1].Score+1e-9 {
				t.Fatalf("scores not non-increasing at %d", i)
			}
			if c.TFSF <= 0 {
				t.Fatal("candidate with no explained failures in report")
			}
		}
	}
}

// TestDiagnoseDegenerateLogs drives Diagnose and DiagnoseMulti with every
// degenerate log shape a real tester (or the noise model) can produce:
// empty logs, out-of-range patterns and observations, negative indices.
// The defined behavior is a valid (possibly empty) report — never a panic.
func TestDiagnoseDegenerateLogs(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	patterns := fx.eng.ps.N
	numObs := fx.eng.arch.NumObs(false)
	logs := map[string]*failurelog.Log{
		"empty":           {Design: "aes"},
		"empty truncated": {Design: "aes", Truncated: true},
		"pattern too big": {Design: "aes", Fails: []scan.Failure{{Pattern: int32(patterns + 7), Obs: 0}}},
		"obs too big":     {Design: "aes", Fails: []scan.Failure{{Pattern: 0, Obs: int32(numObs + 3)}}},
		"negative":        {Design: "aes", Fails: []scan.Failure{{Pattern: -4, Obs: -1}}},
		"all out of range": {Design: "aes", Fails: []scan.Failure{
			{Pattern: -1, Obs: 0}, {Pattern: int32(patterns), Obs: 0}, {Pattern: 0, Obs: int32(numObs)},
		}},
	}
	for name, log := range logs {
		for _, diag := range []struct {
			kind string
			run  func(*failurelog.Log) *Report
		}{
			{"Diagnose", fx.eng.Diagnose},
			{"DiagnoseMulti", fx.eng.DiagnoseMulti},
		} {
			rep := diag.run(log) // must not panic
			if rep == nil {
				t.Fatalf("%s(%s): nil report", diag.kind, name)
			}
			for _, c := range rep.Candidates {
				_ = c.Fault // report must stay iterable
			}
		}
	}
}

// TestDiagnoseMixedRangeLogKeepsValidFails checks that out-of-range fails
// are dropped, not fatal: a valid failing bit alongside garbage still
// drives diagnosis.
func TestDiagnoseMixedRangeLog(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	faults := detectableFaults(fx, false, 1, 17)
	if len(faults) == 0 {
		t.Skip("no detectable fault at this scale")
	}
	clean := fx.eng.InjectLog(faults[:1], false)
	dirty := &failurelog.Log{Design: clean.Design, Fails: append([]scan.Failure{
		{Pattern: -9, Obs: 2}, {Pattern: 1 << 30, Obs: 0},
	}, clean.Fails...)}
	repClean := fx.eng.Diagnose(clean)
	repDirty := fx.eng.Diagnose(dirty)
	if repClean.Resolution() != repDirty.Resolution() {
		t.Fatalf("resolution changed by out-of-range fails: %d vs %d",
			repClean.Resolution(), repDirty.Resolution())
	}
}

// TestDiagnoseCtxCancelled asserts that an expired context aborts
// diagnosis promptly with the context's error instead of scoring the full
// candidate pool, for both the single- and multi-fault paths.
func TestDiagnoseCtxCancelled(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	faults := detectableFaults(fx, false, 1, 9)
	if len(faults) == 0 {
		t.Fatal("no detectable fault")
	}
	log := fx.eng.InjectLog(faults[:1], false)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	rep, err := fx.eng.DiagnoseCtx(ctx, log)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DiagnoseCtx err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Fatal("cancelled DiagnoseCtx returned a report")
	}
	if el := time.Since(start); el > 200*time.Millisecond {
		t.Fatalf("cancelled DiagnoseCtx took %v", el)
	}

	repM, err := fx.eng.DiagnoseMultiCtx(ctx, log)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("DiagnoseMultiCtx err = %v, want context.Canceled", err)
	}
	if repM != nil {
		t.Fatal("cancelled DiagnoseMultiCtx returned a report")
	}

	// A background context must reproduce the uncancelled path exactly.
	want := fx.eng.Diagnose(log)
	got, err := fx.eng.DiagnoseCtx(context.Background(), log)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resolution() != want.Resolution() {
		t.Fatalf("ctx path resolution %d != plain %d", got.Resolution(), want.Resolution())
	}
}

// TestConcurrentDiagnoseMatchesSerial runs single- and multi-fault
// diagnoses of several logs on one shared engine at GOMAXPROCS 1, 2 and 8,
// serially and concurrently, and checks every report against the serial
// one at GOMAXPROCS 1, where scoring runs inline on one fork.
func TestConcurrentDiagnoseMatchesSerial(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	var logs []*failurelog.Log
	for _, compacted := range []bool{false, true} {
		for _, f := range detectableFaults(fx, compacted, 4, 59) {
			logs = append(logs, fx.eng.InjectLog([]faultsim.Fault{f}, compacted))
		}
	}
	runs := []func(*failurelog.Log) *Report{fx.eng.Diagnose, fx.eng.DiagnoseMulti}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := make([][]*Report, len(runs))
	for r, run := range runs {
		for _, log := range logs {
			want[r] = append(want[r], run(log))
		}
	}
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for r, run := range runs {
			for i, log := range logs {
				if got := run(log); !reflect.DeepEqual(got, want[r][i]) {
					t.Errorf("GOMAXPROCS %d run %d log %d: serial report differs", procs, r, i)
				}
			}
		}
		const rounds = 3
		var wg sync.WaitGroup
		for r, run := range runs {
			for i, log := range logs {
				for k := 0; k < rounds; k++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if got := run(log); !reflect.DeepEqual(got, want[r][i]) {
							t.Errorf("GOMAXPROCS %d run %d log %d: concurrent report differs", procs, r, i)
						}
					}()
				}
			}
		}
		wg.Wait()
	}
}

// countdownCtx reports cancellation from its n-th Err call on, and records
// the most forks its engine's pool had checked out at any Err call.
type countdownCtx struct {
	context.Context
	pool *forkPool
	n    atomic.Int64
	peak atomic.Int64
}

func (c *countdownCtx) Err() error {
	c.pool.mu.Lock()
	out := int64(c.pool.calls + c.pool.helpers)
	c.pool.mu.Unlock()
	if out > c.peak.Load() {
		c.peak.Store(out)
	}
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestForkBudget checks the fork pool's bound: with N calls diagnosing at
// once, an engine makes at most max(GOMAXPROCS, N) forks; a lone call
// scores on GOMAXPROCS forks; and a call cancelled mid-scoring returns its
// helpers, so no fork stays checked out.
func TestForkBudget(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	log := fx.eng.InjectLog(detectableFaults(fx, false, 1, 67), false)
	procs := runtime.GOMAXPROCS(0)
	fresh := func() *Engine {
		e := fx.eng.Fork()
		e.forks = &forkPool{}
		return e
	}
	checkedIn := func(tag string, p *forkPool) {
		t.Helper()
		if p.calls != 0 || p.helpers != 0 || len(p.free) != p.made {
			t.Fatalf("%s: %d calls, %d helpers, %d of %d forks free", tag, p.calls, p.helpers, len(p.free), p.made)
		}
	}
	for _, calls := range []int{1, 2, 4, 16} {
		eng := fresh()
		var wg sync.WaitGroup
		for k := 0; k < calls; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				eng.Diagnose(log)
			}()
		}
		wg.Wait()
		tag := fmt.Sprintf("%d calls at GOMAXPROCS %d", calls, procs)
		checkedIn(tag, eng.forks)
		if made := eng.forks.made; made > max(procs, calls) || calls == 1 && made != procs {
			t.Fatalf("%s made %d forks", tag, made)
		}
	}

	eng := fresh()
	ctx := &countdownCtx{Context: context.Background(), pool: eng.forks}
	ctx.n.Store(4) // past the pre-extraction check, into stage 1
	if _, err := eng.DiagnoseCtx(ctx, log); !errors.Is(err, context.Canceled) {
		t.Fatalf("DiagnoseCtx err = %v, want context.Canceled", err)
	}
	if got := ctx.peak.Load(); got != int64(procs) {
		t.Fatalf("%d forks checked out while scoring; want %d", got, procs)
	}
	checkedIn("cancelled call", eng.forks)
}

// TestForkPoolWaitsForHelpers checks that a call finding every fork out,
// with a helper among them, waits for the helper instead of making a fork,
// and gives up when its context ends first.
func TestForkPoolWaitsForHelpers(t *testing.T) {
	fx := getFixture(t, 0.1, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p := &forkPool{}
	own, err := p.get(context.Background(), fx.eng)
	if err != nil {
		t.Fatal(err)
	}
	helpers := p.borrow(fx.eng)
	if len(helpers) != 1 {
		t.Fatalf("borrowed %d helpers at GOMAXPROCS 2, want 1", len(helpers))
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.get(ctx, fx.eng); !errors.Is(err, context.Canceled) {
		t.Fatalf("get with a cancelled context while at the bound: err = %v", err)
	}
	if p.calls != 1 || p.made != 2 {
		t.Fatalf("after the cancelled wait: %d calls, %d forks; want 1 and 2", p.calls, p.made)
	}

	got := make(chan *Engine)
	go func() {
		e, _ := p.get(context.Background(), fx.eng)
		got <- e
	}()
	for waiting := false; !waiting; runtime.Gosched() {
		p.mu.Lock()
		waiting = p.freed != nil
		p.mu.Unlock()
	}
	p.giveBack(helpers)
	e := <-got
	if e != helpers[0] || p.made != 2 {
		t.Fatalf("waiting call got a new fork (%d forks made); want the returned helper", p.made)
	}
	p.put(e)
	p.put(own)
	if p.calls != 0 || p.helpers != 0 || len(p.free) != 2 {
		t.Fatalf("pool not checked in: %d calls, %d helpers, %d free", p.calls, p.helpers, len(p.free))
	}
}

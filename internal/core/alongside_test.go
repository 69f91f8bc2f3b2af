package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/diagnosis"
	"repro/internal/failurelog"
	"repro/internal/hgraph"
	"repro/internal/par"
	"repro/internal/policy"
)

// chipResult is everything one diagnosis call returns.
type chipResult struct {
	Rep *diagnosis.Report
	SG  *hgraph.Subgraph
	Out *policy.Outcome
}

// serialChip is the serial composition DiagnoseFullCtx (multi false) and
// DiagnoseMultiCtx (multi true) must reproduce: diagnosis, then the
// back-trace, then the policy.
func serialChip(t *testing.T, fw *Framework, b *dataset.Bundle, log *failurelog.Log, multi bool) chipResult {
	t.Helper()
	ctx := context.Background()
	diagnose := b.Diag.DiagnoseCtx
	if multi {
		diagnose = b.Diag.DiagnoseMultiCtx
	}
	rep, err := diagnose(ctx, log)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := b.Graph.BacktraceCtx(ctx, log, b.Diag.Result())
	if err != nil {
		t.Fatal(err)
	}
	return chipResult{rep, sg, fw.PolicyFor(b).ApplyCtx(ctx, rep, sg)}
}

// concurrentChip runs the entry point under test.
func concurrentChip(ctx context.Context, fw *Framework, b *dataset.Bundle, log *failurelog.Log, multi bool) (chipResult, error) {
	if multi {
		rep, out, err := fw.DiagnoseMultiCtx(ctx, b, log)
		return chipResult{Rep: rep, Out: out}, err
	}
	rep, sg, out, err := fw.DiagnoseFullCtx(ctx, b, log)
	return chipResult{rep, sg, out}, err
}

// alongsideLogs returns uncompacted and EDT-compacted logs of test chips.
func alongsideLogs(x *endToEnd, chips int) []*failurelog.Log {
	inject := x.bundle.Diag.Fork()
	var logs []*failurelog.Log
	for _, s := range x.test[:chips] {
		for _, compacted := range []bool{false, true} {
			if log := inject.InjectLog(s.Faults, compacted); len(log.Fails) > 0 {
				logs = append(logs, log)
			}
		}
	}
	return logs
}

// TestDiagnoseAlongsideMatchesSerial checks that running the back-trace
// alongside diagnosis returns exactly the serial composition's report,
// subgraph and outcome, single- and multi-fault, uncompacted and EDT, at
// GOMAXPROCS 1, 2 and 8, with calls run one at a time and concurrently on
// one bundle.
func TestDiagnoseAlongsideMatchesSerial(t *testing.T) {
	x := getE2E(t)
	logs := alongsideLogs(x, 3)
	want := make([][2]chipResult, len(logs))
	for i, log := range logs {
		for m, multi := range []bool{false, true} {
			want[i][m] = serialChip(t, x.fw, x.bundle, log, multi)
			if multi {
				want[i][m].SG = nil // DiagnoseMultiCtx does not return it
			}
		}
	}
	check := func(procs, i, m int, got chipResult, err error, how string) {
		if err != nil {
			t.Errorf("GOMAXPROCS %d log %d multi %t %s: %v", procs, i, m == 1, how, err)
			return
		}
		if !reflect.DeepEqual(got, want[i][m]) {
			t.Errorf("GOMAXPROCS %d log %d multi %t %s: result differs from the serial composition", procs, i, m == 1, how)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for i, log := range logs {
			for m, multi := range []bool{false, true} {
				got, err := concurrentChip(context.Background(), x.fw, x.bundle, log, multi)
				check(procs, i, m, got, err, "serial calls")
			}
		}
		var wg sync.WaitGroup
		for i, log := range logs {
			for m, multi := range []bool{false, true} {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got, err := concurrentChip(context.Background(), x.fw, x.bundle, log, multi)
					check(procs, i, m, got, err, "concurrent calls")
				}()
			}
		}
		wg.Wait()
	}
}

// settleGoroutines waits for the goroutine count to fall back to before
// and fails if it does not.
func settleGoroutines(t *testing.T, before int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%s: goroutines leaked: %d -> %d", what, before, after)
	}
}

// TestDiagnoseAlongsideCancel cancels before and during calls and checks
// that each call returns the context's error and no results, or, if it
// finished first, the full results, and that no goroutine outlives it.
func TestDiagnoseAlongsideCancel(t *testing.T) {
	x := getE2E(t)
	logs := alongsideLogs(x, 3)
	for m, multi := range []bool{false, true} {
		pre, cancel := context.WithCancel(context.Background())
		cancel()
		before := runtime.NumGoroutine()
		got, err := concurrentChip(pre, x.fw, x.bundle, logs[0], multi)
		if !errors.Is(err, context.Canceled) || got != (chipResult{}) {
			t.Fatalf("multi %t, cancelled before the call: err %v, results %+v", multi, err, got)
		}
		settleGoroutines(t, before, "cancelled before the call")

		t0 := time.Now()
		concurrentChip(context.Background(), x.fw, x.bundle, logs[1], multi)
		full := time.Since(t0)
		cut := 0
		for k := 0; k < 20; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			before := runtime.NumGoroutine()
			timer := time.AfterFunc(full*time.Duration(k)/20, cancel)
			got, err := concurrentChip(ctx, x.fw, x.bundle, logs[k%len(logs)], multi)
			timer.Stop()
			cancel()
			switch {
			case err == nil:
				if got.Rep == nil || got.Out == nil || (m == 0 && got.SG == nil) {
					t.Fatalf("multi %t: nil error with missing results", multi)
				}
			case errors.Is(err, context.Canceled):
				cut++
				if got != (chipResult{}) {
					t.Fatalf("multi %t: cancelled call returned results", multi)
				}
			default:
				t.Fatalf("multi %t: error %v, want the context's", multi, err)
			}
			settleGoroutines(t, before, "cancelled during the call")
		}
		if cut == 0 {
			t.Fatalf("multi %t: no call was cut short", multi)
		}
	}
}

// TestDiagnoseAlongsidePanicReachesCaller: a bundle without a graph makes
// the back-trace panic on its worker goroutine; the panic must reach the
// caller's recover, after the diagnosis stage has stopped.
func TestDiagnoseAlongsidePanicReachesCaller(t *testing.T) {
	x := getE2E(t)
	broken := *x.bundle
	broken.Graph = nil
	log := alongsideLogs(x, 1)[0]
	for _, multi := range []bool{false, true} {
		before := runtime.NumGoroutine()
		p := func() (p any) {
			defer func() { p = recover() }()
			concurrentChip(context.Background(), x.fw, &broken, log, multi)
			return nil
		}()
		var wp *par.WorkerPanic
		if err, _ := p.(error); !errors.As(err, &wp) {
			t.Fatalf("multi %t: recovered %v (%T), want the back-trace's panic", multi, p, p)
		}
		var re runtime.Error
		if !errors.As(wp, &re) {
			t.Fatalf("multi %t: panic value %v, want a nil-graph runtime error", multi, wp.Value)
		}
		settleGoroutines(t, before, "panicking call")
	}
}

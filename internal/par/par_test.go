package par

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	if Workers(0) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d", Workers(0))
	}
	if Workers(-3) != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d", Workers(-3))
	}
	if Workers(5) != 5 {
		t.Fatalf("Workers(5) = %d", Workers(5))
	}
}

func TestMapOrdered(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		out := Map(workers, 100, func(i int) int { return i * i })
		if len(out) != 100 {
			t.Fatalf("workers=%d: len=%d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	if out := Map(4, 0, func(i int) int { return i }); len(out) != 0 {
		t.Fatalf("len=%d", len(out))
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	const n = 500
	var hits [n]atomic.Int32
	ForEach(8, n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if hits[i].Load() != 1 {
			t.Fatalf("index %d visited %d times", i, hits[i].Load())
		}
	}
}

func TestMapWorkerIDsBounded(t *testing.T) {
	const workers = 4
	ids := MapWorker(workers, 200, func(w, i int) int { return w })
	for i, w := range ids {
		if w < 0 || w >= workers {
			t.Fatalf("index %d ran on worker %d", i, w)
		}
	}
}

func TestSeedForStreamsIndependent(t *testing.T) {
	// Distinct indices must give distinct seeds, and the first draw of each
	// stream should look uncorrelated (no shared prefix).
	seen := map[int64]bool{}
	var first []float64
	for i := uint64(0); i < 64; i++ {
		s := SeedFor(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
		first = append(first, rand.New(rand.NewSource(s)).Float64())
	}
	mean := 0.0
	for _, v := range first {
		mean += v
	}
	mean /= float64(len(first))
	if mean < 0.3 || mean > 0.7 {
		t.Fatalf("first-draw mean %.3f suggests correlated streams", mean)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values from the canonical splitmix64 with seed advanced by
	// the golden ratio increment (Steele et al.).
	if got := SplitMix64(0); got != 0xe220a8397b1dcdaf {
		t.Fatalf("SplitMix64(0) = %#x", got)
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("adjacent indices collide")
	}
}

func TestFlightDedupesConcurrentCalls(t *testing.T) {
	var f Flight[int]
	var runs atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := f.Do("k", func() (int, error) {
				runs.Add(1)
				return 7, nil
			})
			if v != 7 || err != nil {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if runs.Load() != 1 {
		t.Fatalf("fn ran %d times", runs.Load())
	}
	// Result stays memoized.
	v, _ := f.Do("k", func() (int, error) { runs.Add(1); return 0, nil })
	if v != 7 || runs.Load() != 1 {
		t.Fatalf("memoization broken: v=%d runs=%d", v, runs.Load())
	}
}

func TestFlightCachesErrors(t *testing.T) {
	var f Flight[int]
	boom := errors.New("boom")
	if _, err := f.Do("k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Do("k", func() (int, error) { return 1, nil }); err != boom {
		t.Fatalf("error not cached: %v", err)
	}
}

func TestFlightDistinctKeys(t *testing.T) {
	var f Flight[string]
	a, _ := f.Do("a", func() (string, error) { return "A", nil })
	b, _ := f.Do("b", func() (string, error) { return "B", nil })
	if a != "A" || b != "B" {
		t.Fatalf("a=%q b=%q", a, b)
	}
}

func TestForEachCtxCompletesWithoutCancel(t *testing.T) {
	for _, w := range []int{1, 4} {
		var hits atomic.Int64
		err := ForEachCtx(context.Background(), w, 100, func(i int) { hits.Add(1) })
		if err != nil {
			t.Fatalf("workers=%d: unexpected error %v", w, err)
		}
		if hits.Load() != 100 {
			t.Fatalf("workers=%d: %d hits, want 100", w, hits.Load())
		}
	}
}

func TestMapCtxMatchesMap(t *testing.T) {
	got, err := MapCtx(context.Background(), 4, 50, func(i int) int { return i * i })
	if err != nil {
		t.Fatal(err)
	}
	want := Map(4, 50, func(i int) int { return i * i })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("index %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestForEachCtxCancelMidRun cancels while items are still being processed
// and asserts the call returns promptly with ctx.Err() and without leaking
// worker goroutines.
func TestForEachCtxCancelMidRun(t *testing.T) {
	for _, w := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var processed atomic.Int64
		const n = 1 << 20
		start := time.Now()
		err := ForEachCtx(ctx, w, n, func(i int) {
			if processed.Add(1) == 32 {
				cancel()
			}
			time.Sleep(50 * time.Microsecond)
		})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", w, err)
		}
		if p := processed.Load(); p >= n/2 {
			t.Fatalf("workers=%d: processed %d of %d items after cancel", w, p, n)
		}
		if elapsed > 5*time.Second {
			t.Fatalf("workers=%d: cancelled run took %v", w, elapsed)
		}
		// All workers must have exited by return time; allow unrelated
		// test-runner goroutines a moment to settle.
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("workers=%d: goroutines leaked: %d -> %d", w, before, after)
		}
	}
}

// TestForEachCtxPreCancelled asserts an already-expired context processes
// nothing (sequential and parallel paths both check before the first item).
func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, w := range []int{1, 4} {
		var hits atomic.Int64
		err := ForEachCtx(ctx, w, 1000, func(i int) { hits.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v", w, err)
		}
		// Parallel workers may each claim at most one item before seeing
		// the cancelled context.
		if hits.Load() > int64(w) {
			t.Fatalf("workers=%d: %d items ran on a pre-cancelled context", w, hits.Load())
		}
	}
}

// TestForEachCtxStress hammers concurrent runs with racing cancellations;
// meaningful under -race (the CI test step runs it there).
func TestForEachCtxStress(t *testing.T) {
	var wg sync.WaitGroup
	for round := 0; round < 16; round++ {
		wg.Add(1)
		go func(round int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var sum atomic.Int64
			go func() {
				time.Sleep(time.Duration(round%5) * 100 * time.Microsecond)
				cancel()
			}()
			_ = ForEachCtx(ctx, 4, 4096, func(i int) { sum.Add(int64(i)) })
		}(round)
	}
	wg.Wait()
}

func TestFlightHook(t *testing.T) {
	var f Flight[int]
	var mu sync.Mutex
	hits, misses := 0, 0
	f.Hook = func(_ string, hit bool) {
		mu.Lock()
		if hit {
			hits++
		} else {
			misses++
		}
		mu.Unlock()
	}
	for i := 0; i < 3; i++ {
		if v, err := f.Do("k", func() (int, error) { return 7, nil }); err != nil || v != 7 {
			t.Fatalf("Do: %v %v", v, err)
		}
	}
	f.Do("other", func() (int, error) { return 1, nil })
	if misses != 2 || hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/2", hits, misses)
	}
}

// panicEntryPoints runs fn through every exported par loop at workers
// workers over n indices.
var panicEntryPoints = map[string]func(workers, n int, fn func(i int)){
	"ForEach":       ForEach,
	"ForEachWorker": func(w, n int, fn func(int)) { ForEachWorker(w, n, func(_, i int) { fn(i) }) },
	"ForEachCtx":    func(w, n int, fn func(int)) { ForEachCtx(context.Background(), w, n, fn) },
	"ForEachWorkerCtx": func(w, n int, fn func(int)) {
		ForEachWorkerCtx(context.Background(), w, n, func(_, i int) { fn(i) })
	},
	"Map": func(w, n int, fn func(int)) { Map(w, n, func(i int) int { fn(i); return i }) },
	"MapWorker": func(w, n int, fn func(int)) {
		MapWorker(w, n, func(_, i int) int { fn(i); return i })
	},
	"MapCtx": func(w, n int, fn func(int)) {
		MapCtx(context.Background(), w, n, func(i int) int { fn(i); return i })
	},
	"MapWorkerCtx": func(w, n int, fn func(int)) {
		MapWorkerCtx(context.Background(), w, n, func(_, i int) int { fn(i); return i })
	},
}

// recovered runs call and returns what a recover on the calling goroutine
// sees.
func recovered(call func()) (p any) {
	defer func() { p = recover() }()
	call()
	return nil
}

// TestWorkerPanicReachesCaller panics in fn at one index and asserts, for
// every entry point and worker count >= 2, that the caller's recover gets
// the value with the worker's stack, and that no worker is still running
// or starts another item after the call has panicked.
func TestWorkerPanicReachesCaller(t *testing.T) {
	type boom struct{ i int }
	for name, run := range panicEntryPoints {
		for _, w := range []int{2, 8} {
			before := runtime.NumGoroutine()
			var running, calls atomic.Int32
			p := recovered(func() {
				run(w, 64, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					calls.Add(1)
					if i == 5 {
						panic(boom{i})
					}
					time.Sleep(100 * time.Microsecond)
				})
			})
			wp, ok := p.(*WorkerPanic)
			if !ok {
				t.Fatalf("%s workers=%d: recovered %v (%T), want a *WorkerPanic", name, w, p, p)
			}
			if wp.Value != (boom{5}) {
				t.Fatalf("%s workers=%d: panic value %v, want %v", name, w, wp.Value, boom{5})
			}
			if !strings.Contains(wp.Error(), "par_test.go") {
				t.Fatalf("%s workers=%d: message lacks the worker's stack:\n%s", name, w, wp.Error())
			}
			if n := running.Load(); n != 0 {
				t.Fatalf("%s workers=%d: %d items still running after the panic reached the caller", name, w, n)
			}
			settled := calls.Load()
			time.Sleep(2 * time.Millisecond)
			if calls.Load() != settled {
				t.Fatalf("%s workers=%d: items started after the panic reached the caller", name, w)
			}
			if settled == 64 {
				t.Fatalf("%s workers=%d: workers kept claiming indices after the panic", name, w)
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				t.Fatalf("%s workers=%d: goroutines leaked: %d -> %d", name, w, before, after)
			}
		}
	}
}

// TestWorkerPanicUnwraps checks that an error panic stays reachable
// through errors.Is, and that a panic crossing two nested par loops keeps
// the innermost worker's value instead of being wrapped twice.
func TestWorkerPanicUnwraps(t *testing.T) {
	sentinel := errors.New("sentinel")
	p := recovered(func() {
		ForEach(2, 4, func(i int) {
			ForEach(2, 4, func(j int) {
				if i == 1 && j == 2 {
					panic(sentinel)
				}
			})
		})
	})
	wp, ok := p.(*WorkerPanic)
	if !ok {
		t.Fatalf("recovered %v (%T), want a *WorkerPanic", p, p)
	}
	if wp.Value != sentinel || !errors.Is(wp, sentinel) {
		t.Fatalf("panic value %v, want the sentinel error", wp.Value)
	}
}

// TestSerialPanicUnchanged: with one worker fn runs on the caller's
// goroutine, so its panic reaches the caller as it was raised.
func TestSerialPanicUnchanged(t *testing.T) {
	for name, run := range panicEntryPoints {
		p := recovered(func() {
			run(1, 8, func(i int) {
				if i == 3 {
					panic("serial")
				}
			})
		})
		if p != "serial" {
			t.Fatalf("%s workers=1: recovered %v, want \"serial\"", name, p)
		}
	}
}

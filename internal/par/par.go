// Package par is the repository's deterministic parallel execution layer:
// a bounded worker pool with an index-ordered Map primitive, per-index RNG
// stream derivation, and a memoizing singleflight for shared caches.
//
// Every primitive is designed so that the observable result is a pure
// function of the inputs and never of the worker count or the goroutine
// schedule: Map returns results in input order, SeedFor gives each work
// item its own statistically independent RNG stream derived from the item
// index alone, and Flight guarantees a cached computation runs exactly
// once no matter how many goroutines request it concurrently. Parallel
// runs are therefore bitwise-identical to sequential runs.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: values <= 0 mean "all cores"
// (runtime.GOMAXPROCS).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach invokes fn(i) for every i in [0, n) on at most workers
// goroutines. fn must be safe for concurrent invocation on distinct
// indices. With workers <= 1 (or n <= 1) the calls run inline on the
// caller's goroutine, in index order, with no goroutine overhead.
func ForEach(workers, n int, fn func(i int)) {
	ForEachWorker(workers, n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with the executing worker's id (in
// [0, workers)) passed to fn, so callers can maintain per-worker scratch
// state (forked engines, model replicas) without locking. A given index is
// processed by exactly one worker; the mapping of indices to workers is
// not deterministic, so per-worker state must not influence results.
//
// A panic in fn reaches the caller's goroutine however many workers run,
// so a recover there isolates it. With one worker fn runs on the caller's
// goroutine and its panic is unchanged. Otherwise the first worker panic
// stops every worker from claiming another index and, once all have
// returned, is raised again on the caller as a *WorkerPanic.
func ForEachWorker(workers, n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	r := &workerGroup{}
	r.wg.Add(w)
	for worker := 0; worker < w; worker++ {
		go func(worker int) {
			defer r.done()
			for i := r.claim(); i < n; i = r.claim() {
				fn(worker, i)
			}
		}(worker)
	}
	r.wait()
}

// WorkerPanic is the value a par primitive panics with on the caller's
// goroutine when fn panicked on a worker goroutine: the worker's panic
// value and the worker's stack at the panic, which the caller's own stack
// no longer shows.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// Error renders the worker's panic value followed by its stack.
func (p *WorkerPanic) Error() string {
	return fmt.Sprintf("%v\n\npanicked on a par worker:\n%s", p.Value, p.Stack)
}

// Unwrap returns the worker's panic value when it is an error, so
// errors.Is and errors.As see through the wrapper.
func (p *WorkerPanic) Unwrap() error {
	err, _ := p.Value.(error)
	return err
}

// workerGroup is the shared state of one parallel loop: the next index to
// claim, the items completed, the running workers, and the first worker
// panic.
type workerGroup struct {
	next      atomic.Int64
	completed atomic.Int64 // counted by ForEachWorkerCtx only
	wg        sync.WaitGroup
	first     atomic.Pointer[WorkerPanic]
}

// claim returns the next unclaimed index.
func (r *workerGroup) claim() int { return int(r.next.Add(1)) - 1 }

// done is deferred by every worker. A worker that panicked recovers here,
// records the first panic, and pushes the claim counter past every index
// so that no worker claims another. A panic value that is already a
// *WorkerPanic (a nested par loop) is kept as it is.
func (r *workerGroup) done() {
	if p := recover(); p != nil {
		r.next.Store(1 << 62)
		wp, ok := p.(*WorkerPanic)
		if !ok {
			wp = &WorkerPanic{Value: p, Stack: debug.Stack()}
		}
		r.first.CompareAndSwap(nil, wp)
	}
	r.wg.Done()
}

// wait waits for every worker to return, then raises the first worker
// panic again on the caller's goroutine, so no worker outlives the call.
func (r *workerGroup) wait() {
	r.wg.Wait()
	if p := r.first.Load(); p != nil {
		panic(p)
	}
}

// ForEachWorkerCtx is ForEachWorker with cooperative cancellation: every
// worker checks ctx before each item and stops claiming new indices once
// ctx is done, so a cancelled call returns promptly (after at most one
// in-flight fn per worker) instead of finishing the remaining items. It
// returns ctx.Err() when the run was cut short and nil when every index
// completed. A panic in fn is handled as in ForEachWorker, and all
// goroutines have exited by the time ForEachWorkerCtx returns —
// cancellation never leaks workers.
func ForEachWorkerCtx(ctx context.Context, workers, n int, fn func(worker, i int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(0, i)
		}
		return nil
	}
	r := &workerGroup{}
	r.wg.Add(w)
	for worker := 0; worker < w; worker++ {
		go func(worker int) {
			defer r.done()
			for ctx.Err() == nil {
				i := r.claim()
				if i >= n {
					return
				}
				fn(worker, i)
				r.completed.Add(1)
			}
		}(worker)
	}
	r.wait()
	if int(r.completed.Load()) == n {
		return nil // every index completed, even if ctx fired at the end
	}
	return ctx.Err()
}

// Map fans fn out over indices [0, n) on at most workers goroutines and
// returns the results in input order, so the output is independent of the
// worker count and the schedule.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) { out[i] = fn(i) })
	return out
}

// MapWorker is Map with the executing worker's id passed to fn (see
// ForEachWorker).
func MapWorker[T any](workers, n int, fn func(worker, i int) T) []T {
	out := make([]T, n)
	ForEachWorker(workers, n, func(w, i int) { out[i] = fn(w, i) })
	return out
}

// SplitMix64 is the splitmix64 finalizer: a bijective mixing function with
// full avalanche, used to turn consecutive indices into well-separated
// stream keys.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SeedFor derives the RNG seed of work item index from a base seed:
// seed ⊕ splitmix64(index). Each index gets a statistically independent
// stream that depends only on (seed, index), never on which worker runs it
// or in what order, which is what keeps randomized parallel work
// deterministic across worker counts.
func SeedFor(seed int64, index uint64) int64 {
	return seed ^ int64(SplitMix64(index))
}

// Flight is a memoizing singleflight: concurrent Do calls with the same
// key run fn exactly once and share its result, and the result stays
// cached for later calls. The zero value is ready to use.
type Flight[V any] struct {
	mu    sync.Mutex
	calls map[string]*flightCall[V]

	// Hook, when set before the first Do call, observes every lookup: hit
	// reports whether the result came from the cache (or joined an
	// in-flight computation) rather than running fn. Used to feed
	// cache-effectiveness counters without coupling par to the metrics
	// package.
	Hook func(key string, hit bool)
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do returns the cached result for key, executing fn to produce it if no
// prior or in-flight call exists. Errors are cached too: a failed build is
// not retried, mirroring how the experiment suite treats a broken bundle
// as fatal.
func (f *Flight[V]) Do(key string, fn func() (V, error)) (V, error) {
	f.mu.Lock()
	if f.calls == nil {
		f.calls = make(map[string]*flightCall[V])
	}
	if c, ok := f.calls[key]; ok {
		f.mu.Unlock()
		if f.Hook != nil {
			f.Hook(key, true)
		}
		<-c.done
		return c.val, c.err
	}
	c := &flightCall[V]{done: make(chan struct{})}
	f.calls[key] = c
	f.mu.Unlock()
	if f.Hook != nil {
		f.Hook(key, false)
	}
	c.val, c.err = fn()
	close(c.done)
	return c.val, c.err
}

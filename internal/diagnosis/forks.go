package diagnosis

import (
	"context"
	"runtime"
	"sync"
)

// forkPool recycles engine forks across diagnosis calls, and bounds how
// many exist. Unlike a sync.Pool it keeps its forks through garbage
// collection and hands them back to any goroutine, so serial callers
// reuse warm scratch.
//
// Every call checks out one fork of its own. For each scoring stage it
// borrows helper forks, and returns them when the stage ends, but only
// while own and helper forks, counted over all calls, stay within
// GOMAXPROCS. A serial call on 2 CPUs therefore scores on two forks, and
// two calls scoring at once on one each. A call makes a new fork of its
// own only while the pool holds fewer than max(GOMAXPROCS, calls in
// progress); otherwise some fork is out as a helper, and the call waits
// for it to come back at the end of that helper's stage. So the pool never
// holds more than max(GOMAXPROCS, concurrent calls) forks, and concurrent
// calls never oversubscribe the CPUs.
type forkPool struct {
	mu      sync.Mutex
	free    []*Engine
	made    int           // forks created
	calls   int           // calls holding or waiting for a fork of their own
	helpers int           // helper forks checked out
	freed   chan struct{} // closed when a fork comes back, if a call waits
}

// get checks out the fork a call runs on. It fails only when ctx ends
// while the call waits for a fork.
func (p *forkPool) get(ctx context.Context, d *Engine) (*Engine, error) {
	p.mu.Lock()
	p.calls++
	for {
		if n := len(p.free); n > 0 {
			e := p.free[n-1]
			p.free = p.free[:n-1]
			p.mu.Unlock()
			return e, nil
		}
		if p.made < max(runtime.GOMAXPROCS(0), p.calls) {
			p.made++
			p.mu.Unlock()
			return d.Fork(), nil
		}
		if p.freed == nil {
			p.freed = make(chan struct{})
		}
		freed := p.freed
		p.mu.Unlock()
		select {
		case <-freed:
		case <-ctx.Done():
			p.mu.Lock()
			p.calls--
			p.mu.Unlock()
			return nil, ctx.Err()
		}
		p.mu.Lock()
	}
}

// put returns a call's own fork.
func (p *forkPool) put(e *Engine) {
	p.mu.Lock()
	p.calls--
	p.release(e)
	p.mu.Unlock()
}

// borrow checks out helper forks while the calls' own forks and the
// helpers stay within GOMAXPROCS. It may return none.
func (p *forkPool) borrow(d *Engine) []*Engine {
	p.mu.Lock()
	defer p.mu.Unlock()
	var helpers []*Engine
	for budget := runtime.GOMAXPROCS(0); p.calls+p.helpers < budget; p.helpers++ {
		if n := len(p.free); n > 0 {
			helpers = append(helpers, p.free[n-1])
			p.free = p.free[:n-1]
			continue
		}
		p.made++
		helpers = append(helpers, d.Fork())
	}
	return helpers
}

// giveBack returns borrowed helpers.
func (p *forkPool) giveBack(helpers []*Engine) {
	p.mu.Lock()
	p.helpers -= len(helpers)
	p.release(helpers...)
	p.mu.Unlock()
}

// release puts forks on the free list and wakes waiting calls. p.mu must
// be held.
func (p *forkPool) release(es ...*Engine) {
	p.free = append(p.free, es...)
	if p.freed != nil {
		close(p.freed)
		p.freed = nil
	}
}

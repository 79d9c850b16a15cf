// Package par is the program's one fork-join pool. A model generation's
// units (route-pool attempts, per-slice stores, knowledge bases and
// training runs, landmark sweeps) run through For, so a build does not
// depend on how many cores ran it; so do a routing batch's items, the
// gateway's sub-batches and probes, and loadgen's requests.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) on min(workers, n) workers
// and returns when all of them have; workers ≤ 0 means GOMAXPROCS. The
// calling goroutine is one of the workers, so For starts one goroutine
// fewer than it has workers; with one worker it is a plain loop on the
// caller's goroutine.
//
// fn must confine its writes to what index i owns (element i of a
// pre-sized slice, column i of a table); For orders every such write
// before its own return.
//
// The error returned is that of the lowest failing index, whatever the
// schedule: indices are claimed in ascending order, so when an index
// fails every lower one has already been claimed and still reports.
// Indices above a failure that nobody has claimed yet are skipped, as the
// plain loop skips them. A panic in fn stops the claiming the same way
// and is raised again on the caller's goroutine once the workers are
// done.
func For(n, workers int, fn func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	p := &pool{fn: fn, n: n, failed: n}
	p.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go p.spawned()
	}
	p.work()
	p.wg.Wait()
	if p.panicked != nil {
		panic(p.panicked)
	}
	return p.firstErr
}

// pool is one For call's shared state, a single allocation.
type pool struct {
	fn       func(i int) error
	n        int
	next     atomic.Int64 // the next unclaimed index; n once anything failed
	wg       sync.WaitGroup
	mu       sync.Mutex
	failed   int // lowest failing index so far
	firstErr error
	panicked any
}

// spawned is the body of a worker For started.
func (p *pool) spawned() {
	defer p.wg.Done()
	p.work()
}

// work claims and runs indices until none is left or one has failed.
func (p *pool) work() {
	defer p.recoverPanic()
	for {
		i := int(p.next.Add(1)) - 1
		if i >= p.n {
			return
		}
		if err := p.fn(i); err != nil {
			p.next.Store(int64(p.n))
			p.mu.Lock()
			if i < p.failed {
				p.failed, p.firstErr = i, err
			}
			p.mu.Unlock()
		}
	}
}

// recoverPanic stops the claiming on a panic in fn and keeps the first
// one for For to raise.
func (p *pool) recoverPanic() {
	if v := recover(); v != nil {
		p.next.Store(int64(p.n))
		p.mu.Lock()
		if p.panicked == nil {
			p.panicked = v
		}
		p.mu.Unlock()
	}
}

// Package par is the one worker pool of the build path: the independent
// units of a model generation — route-pool attempts of the trajectory
// simulator, per-slice observation stores, knowledge bases and training
// runs, per-landmark distance sweeps — run through For, so what a build
// produces never depends on how many cores built it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls fn(i) once for every i in [0, n) on min(GOMAXPROCS, n)
// workers and returns when all of them have. With one worker (n ≤ 1, or
// GOMAXPROCS 1) it is a plain loop on the caller's goroutine.
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
func For(n int, fn func(i int) error) error {
	workers := min(runtime.GOMAXPROCS(0), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64 // the next unclaimed index; n once anything failed
		wg       sync.WaitGroup
		mu       sync.Mutex
		failed   = n // lowest failing index so far
		firstErr error
		panicked any
	)
	work := func() {
		defer wg.Done()
		defer func() {
			if p := recover(); p != nil {
				next.Store(int64(n))
				mu.Lock()
				if panicked == nil {
					panicked = p
				}
				mu.Unlock()
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				next.Store(int64(n))
				mu.Lock()
				if i < failed {
					failed, firstErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return firstErr
}

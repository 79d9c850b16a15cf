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
// and returns when all of them have; workers ≤ 0 means GOMAXPROCS. With
// one worker it is a plain loop on the caller's goroutine.
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

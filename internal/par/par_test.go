package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// atWorkers runs body under GOMAXPROCS 1 and 4, and under each of the
// worker counts 0 (GOMAXPROCS), 1, 3 and more than any n the tests use,
// and restores the setting.
func atWorkers(t *testing.T, body func(t *testing.T, workers int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			for _, workers := range []int{0, 1, 3, 5000} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) { body(t, workers) })
			}
		})
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		want := workers
		if want <= 0 {
			want = runtime.GOMAXPROCS(0)
		}
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			ran := make([]atomic.Int32, n)
			var active, peak atomic.Int32
			if err := For(n, workers, func(i int) error {
				now := active.Add(1)
				for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
				}
				runtime.Gosched()
				ran[i].Add(1)
				active.Add(-1)
				return nil
			}); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("n=%d: index %d ran %d times", n, i, c)
				}
			}
			if p := int(peak.Load()); p > min(want, n) {
				t.Fatalf("n=%d: %d calls of fn at once, want at most min(%d, n)", n, p, want)
			}
		}
	})
}

// TestForInlineStartsNoGoroutine: nothing to overlap means the caller's
// goroutine does the work — fn sees the goroutine count For was called
// with.
func TestForInlineStartsNoGoroutine(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{0, 1} {
		before := runtime.NumGoroutine()
		during := before
		if err := For(n, 0, func(int) error { during = runtime.NumGoroutine(); return nil }); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); during != before || after != before {
			t.Fatalf("n=%d: %d goroutines before, %d inside fn, %d after", n, before, during, after)
		}
	}
	inline := func(workers int) error {
		before := runtime.NumGoroutine()
		return For(8, workers, func(int) error {
			if now := runtime.NumGoroutine(); now != before {
				return fmt.Errorf("%d goroutines inside fn, %d before", now, before)
			}
			return nil
		})
	}
	if err := inline(1); err != nil {
		t.Fatalf("workers 1 at GOMAXPROCS 4: %v", err)
	}
	runtime.GOMAXPROCS(1)
	if err := inline(0); err != nil {
		t.Fatalf("GOMAXPROCS 1: %v", err)
	}
}

func TestForReturnsLowestFailingIndex(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		for round := 0; round < 200; round++ {
			err := For(8, workers, func(i int) error {
				if i == 2 || i == 5 {
					return fmt.Errorf("index %d failed", i)
				}
				if i < 2 {
					runtime.Gosched() // let index 5 fail first when it can
				}
				return nil
			})
			if err == nil || err.Error() != "index 2 failed" {
				t.Fatalf("round %d: err = %v, want index 2's", round, err)
			}
		}
	})
}

func TestForRaisesPanicOnCaller(t *testing.T) {
	atWorkers(t, func(t *testing.T, workers int) {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the panic fn raised", p)
			}
		}()
		_ = For(4, workers, func(i int) error {
			if i == 1 {
				panic("boom")
			}
			return nil
		})
		t.Fatal("For returned after fn panicked")
	})
}

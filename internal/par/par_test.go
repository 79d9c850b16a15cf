package par

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

// atWorkers runs body under GOMAXPROCS 1 and 4 and restores the setting.
func atWorkers(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), body)
	}
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	atWorkers(t, func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 3, 17, 1000} {
			ran := make([]atomic.Int32, n)
			if err := For(n, func(i int) error { ran[i].Add(1); return nil }); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			for i := range ran {
				if c := ran[i].Load(); c != 1 {
					t.Fatalf("n=%d: index %d ran %d times", n, i, c)
				}
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
		if err := For(n, func(int) error { during = runtime.NumGoroutine(); return nil }); err != nil {
			t.Fatal(err)
		}
		if after := runtime.NumGoroutine(); during != before || after != before {
			t.Fatalf("n=%d: %d goroutines before, %d inside fn, %d after", n, before, during, after)
		}
	}
	runtime.GOMAXPROCS(1)
	before := runtime.NumGoroutine()
	if err := For(8, func(int) error {
		if now := runtime.NumGoroutine(); now != before {
			return fmt.Errorf("%d goroutines inside fn, %d before", now, before)
		}
		return nil
	}); err != nil {
		t.Fatalf("GOMAXPROCS 1: %v", err)
	}
}

func TestForReturnsLowestFailingIndex(t *testing.T) {
	atWorkers(t, func(t *testing.T) {
		for round := 0; round < 200; round++ {
			err := For(8, func(i int) error {
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
	atWorkers(t, func(t *testing.T) {
		defer func() {
			if p := recover(); p != "boom" {
				t.Fatalf("recovered %v, want the panic fn raised", p)
			}
		}()
		_ = For(4, func(i int) error {
			if i == 1 {
				panic("boom")
			}
			return nil
		})
		t.Fatal("For returned after fn panicked")
	})
}

package pqueue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapOrdering(t *testing.T) {
	var h Heap[string]
	h.Push(3, "c")
	h.Push(1, "a")
	h.Push(2, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		item, _, ok := h.Pop()
		if !ok || item != w {
			t.Fatalf("Pop = %q, want %q", item, w)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on empty heap should report !ok")
	}
}

func TestHeapSortsRandomInput(t *testing.T) {
	f := func(prios []float64) bool {
		var h Heap[int]
		for i, p := range prios {
			h.Push(p, i)
		}
		sorted := append([]float64(nil), prios...)
		sort.Float64s(sorted)
		for _, want := range sorted {
			_, got, ok := h.Pop()
			if !ok || got != want {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapDuplicatePriorities(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 100; i++ {
		h.Push(1.0, i)
	}
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		item, prio, ok := h.Pop()
		if !ok || prio != 1.0 || seen[item] {
			t.Fatalf("duplicate-priority pop %d failed: item=%d prio=%v ok=%v", i, item, prio, ok)
		}
		seen[item] = true
	}
}

func TestHeapReset(t *testing.T) {
	var h Heap[int]
	h.Push(1, 1)
	h.Push(2, 2)
	h.Reset()
	if h.Len() != 0 {
		t.Errorf("Len after Reset = %d", h.Len())
	}
	h.Push(3, 3)
	if item, _, _ := h.Pop(); item != 3 {
		t.Errorf("heap broken after Reset")
	}
}

func TestIndexedHeapBasic(t *testing.T) {
	h := NewIndexedHeap(10)
	h.PushOrDecrease(3, 5.0)
	h.PushOrDecrease(7, 2.0)
	h.PushOrDecrease(1, 8.0)
	for _, want := range []struct {
		key  int
		prio float64
	}{{7, 2.0}, {3, 5.0}, {1, 8.0}} {
		key, prio, ok := h.Pop()
		if !ok || key != want.key || prio != want.prio {
			t.Errorf("Pop = (%d, %v, %t), want (%d, %v)", key, prio, ok, want.key, want.prio)
		}
	}
	if _, _, ok := h.Pop(); ok {
		t.Error("Pop on a drained heap reported a key")
	}
}

func TestIndexedHeapDecreaseKey(t *testing.T) {
	h := NewIndexedHeap(10)
	h.PushOrDecrease(0, 10)
	h.PushOrDecrease(1, 5)
	if !h.PushOrDecrease(0, 1) {
		t.Error("decrease to smaller priority should succeed")
	}
	if h.PushOrDecrease(0, 100) {
		t.Error("increase should be rejected")
	}
	key, prio, _ := h.Pop()
	if key != 0 || prio != 1 {
		t.Errorf("Pop = (%d, %v), want (0, 1)", key, prio)
	}
}

func TestIndexedHeapDijkstraPattern(t *testing.T) {
	const n = 500
	h := NewIndexedHeap(n)
	r := rand.New(rand.NewSource(42))
	want := make([]float64, n)
	for i := 0; i < n; i++ {
		p := r.Float64() * 100
		want[i] = p
		h.PushOrDecrease(i, p+50) // initial worse priority
	}
	for i := 0; i < n; i++ {
		h.PushOrDecrease(i, want[i]) // decrease to final
	}
	prev := -1.0
	count := 0
	for h.Len() > 0 {
		key, prio, _ := h.Pop()
		if prio < prev {
			t.Fatalf("pop order violated: %v after %v", prio, prev)
		}
		if prio != want[key] {
			t.Fatalf("key %d popped with %v, want %v", key, prio, want[key])
		}
		prev = prio
		count++
	}
	if count != n {
		t.Errorf("popped %d keys, want %d", count, n)
	}
}

func BenchmarkHeapPushPop(b *testing.B) {
	var h Heap[int]
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h.Push(r.Float64(), i)
		if h.Len() > 1024 {
			for j := 0; j < 512; j++ {
				h.Pop()
			}
		}
	}
}

func BenchmarkIndexedHeap(b *testing.B) {
	h := NewIndexedHeap(4096)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		h.PushOrDecrease(i%4096, r.Float64())
		if h.Len() > 2048 {
			for j := 0; j < 1024; j++ {
				h.Pop()
			}
		}
	}
}

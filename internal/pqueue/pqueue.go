// Package pqueue provides the two priority-queue flavours used by the
// routing algorithms: a generic binary min-heap for label-correcting
// searches (many entries per vertex), and an indexed heap with
// decrease-key for classic Dijkstra.
package pqueue

// Heap is a generic binary min-heap ordered by a float64 priority.
// The zero value is ready to use.
type Heap[T any] struct {
	items []entry[T]
}

type entry[T any] struct {
	prio float64
	item T
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Push inserts item with the given priority.
func (h *Heap[T]) Push(prio float64, item T) {
	h.items = append(h.items, entry[T]{prio, item})
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the smallest priority.
// The boolean is false when the heap is empty.
func (h *Heap[T]) Pop() (item T, prio float64, ok bool) {
	if len(h.items) == 0 {
		var zero T
		return zero, 0, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	return top.item, top.prio, true
}

// Reset empties the heap, retaining capacity.
func (h *Heap[T]) Reset() { h.items = h.items[:0] }

func (h *Heap[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= h.items[i].prio {
			return
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *Heap[T]) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.items[l].prio < h.items[smallest].prio {
			smallest = l
		}
		if r < n && h.items[r].prio < h.items[smallest].prio {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.items[i], h.items[smallest] = h.items[smallest], h.items[i]
		i = smallest
	}
}

// IndexedHeap is a min-heap over integer keys in [0, n) with decrease-key,
// as needed by Dijkstra. Each key may appear at most once.
type IndexedHeap struct {
	keys []int32   // heap order -> key
	pos  []int32   // key -> heap position, -1 if absent
	prio []float64 // key -> priority
}

// NewIndexedHeap returns a heap over keys [0, n).
func NewIndexedHeap(n int) *IndexedHeap {
	h := &IndexedHeap{
		keys: make([]int32, 0, n),
		pos:  make([]int32, n),
		prio: make([]float64, n),
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
	return h
}

// Len returns the number of queued keys.
func (h *IndexedHeap) Len() int { return len(h.keys) }

// Reset re-initialises the heap for keys [0, n), retaining storage when
// capacity allows. It lets Dijkstra-style callers pool one heap across
// many runs instead of paying NewIndexedHeap's allocations per run.
func (h *IndexedHeap) Reset(n int) {
	h.keys = h.keys[:0]
	if cap(h.pos) < n {
		h.pos = make([]int32, n)
		h.prio = make([]float64, n)
	} else {
		h.pos = h.pos[:n]
		h.prio = h.prio[:n]
	}
	for i := range h.pos {
		h.pos[i] = -1
	}
}

// PushOrDecrease inserts key with the given priority, or lowers its
// priority if already present and the new priority is smaller. It returns
// true if the heap changed.
func (h *IndexedHeap) PushOrDecrease(key int, prio float64) bool {
	if p := h.pos[key]; p >= 0 {
		if prio >= h.prio[key] {
			return false
		}
		h.prio[key] = prio
		h.up(int(p))
		return true
	}
	h.prio[key] = prio
	h.keys = append(h.keys, int32(key))
	h.pos[key] = int32(len(h.keys) - 1)
	h.up(len(h.keys) - 1)
	return true
}

// Pop removes and returns the key with the smallest priority.
// ok is false when the heap is empty.
func (h *IndexedHeap) Pop() (key int, prio float64, ok bool) {
	if len(h.keys) == 0 {
		return 0, 0, false
	}
	top := h.keys[0]
	h.swap(0, len(h.keys)-1)
	h.keys = h.keys[:len(h.keys)-1]
	h.pos[top] = -1
	if len(h.keys) > 0 {
		h.down(0)
	}
	return int(top), h.prio[top], true
}

func (h *IndexedHeap) less(i, j int) bool {
	return h.prio[h.keys[i]] < h.prio[h.keys[j]]
}

func (h *IndexedHeap) swap(i, j int) {
	h.keys[i], h.keys[j] = h.keys[j], h.keys[i]
	h.pos[h.keys[i]] = int32(i)
	h.pos[h.keys[j]] = int32(j)
}

func (h *IndexedHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *IndexedHeap) down(i int) {
	n := len(h.keys)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}

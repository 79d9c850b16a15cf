package routing

import (
	"slices"
	"sync"
	"sync/atomic"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/pqueue"
)

// workspace is everything one PBR search owns besides its Result: the
// cost-kernel scratch (histogram arena + estimator buffers), the label
// slice, the priority heap and the dominance frontiers. Workspaces are
// pooled, so a warmed one runs the whole label loop without allocating.
// A workspace serves one search at a time; its memory is proportional
// to the largest search it has run, never to the graph.
type workspace struct {
	scratch   hybrid.Scratch
	labels    []label
	pq        pqueue.Heap[int32]
	frontiers frontierStore
}

// scratchPool recycles workspaces across queries. Each PBR call takes
// one for its duration and releases it on the way out, so a pooled
// workspace never serves two searches at once; being a sync.Pool, idle
// workspaces are dropped by the garbage collector, so the pool adds
// nothing to the resident heap of a quiet process.
var scratchPool = sync.Pool{New: func() any { return new(workspace) }}

// release readies the workspace for the next search. Clearing the
// labels drops their distribution pointers, which the arena reset has
// just invalidated.
func (ws *workspace) release() {
	ws.scratch.Reset()
	clear(ws.labels)
	ws.labels = ws.labels[:0]
	ws.pq.Reset()
	ws.frontiers.reset()
}

// arenaInUse tracks the retained bytes of every scratch arena currently
// checked out of scratchPool by an in-flight search. Each search adds
// its arena's footprint at checkout and subtracts the same amount at
// release, so the gauge is exact (never drifts) and growth during a
// search becomes visible at that arena's next checkout.
var arenaInUse atomic.Int64

// ArenaBytesInUse reports the total retained bytes of search arenas
// checked out by in-flight PBR queries — the routing pool's live memory
// footprint, surfaced as the arena_bytes_inuse gauge and in /stats.
func ArenaBytesInUse() int64 { return arenaInUse.Load() }

// frontierEntry is one live label on a dominance frontier, with the
// upper bound that ranks it when the frontier is full.
type frontierEntry struct {
	labelIdx int32
	ub       float64
}

// frontierSlot locates one frontier: the labels that reached a vertex
// over the same incoming edge and face the same next-extension slice.
// The vertex is implied by the edge. Two labels facing different
// future cost models are incomparable, so under time-expanded search
// the slice is part of the key; classic searches always use slice 0.
// The frontier's entries are slab[off : off+n], in a block of blockCap.
type frontierSlot struct {
	gen      uint32 // search generation owning the slot; any other value is free
	lastEdge graph.EdgeID
	slice    int32
	off      int32
	n        int32
	blockCap int32
}

// frontierStore holds every dominance frontier of one search: an
// open-addressing table of slots over a slab of entry blocks. Slots
// are stamped with the search generation, so starting the next search
// is a counter increment, not a sweep of the table, and both table and
// slab grow with the search that needs them.
type frontierStore struct {
	slots []frontierSlot // power-of-two length, linear probing
	live  int            // slots of the current generation
	gen   uint32
	slab  []frontierEntry
}

const (
	frontierMinSlots = 256
	// frontierBlock is the entry capacity a frontier starts with. The
	// default MaxFrontier fits, so blocks only ever move (doubling, up
	// to MaxFrontier) under a larger cap — which keeps a huge cap from
	// reserving a huge block per frontier.
	frontierBlock = 8
)

// reset forgets every frontier, retaining the storage.
func (f *frontierStore) reset() {
	f.gen++
	if f.gen == 0 { // wrapped: stale stamps could collide again
		clear(f.slots)
		f.gen = 1
	}
	f.live = 0
	f.slab = f.slab[:0]
}

func (f *frontierStore) probe(lastEdge graph.EdgeID, slice int32) int {
	h := (uint64(uint32(lastEdge)) | uint64(uint32(slice))<<32) * 0x9e3779b97f4a7c15
	return int(h>>32) & (len(f.slots) - 1)
}

// slot returns the frontier of (lastEdge, slice), creating it empty if
// this search has not seen the key. The pointer is valid until the next
// call, which may grow the table.
func (f *frontierStore) slot(lastEdge graph.EdgeID, slice int32, maxFrontier int) *frontierSlot {
	if 2*(f.live+1) > len(f.slots) {
		f.grow()
	}
	for i := f.probe(lastEdge, slice); ; i = (i + 1) & (len(f.slots) - 1) {
		s := &f.slots[i]
		if s.gen != f.gen {
			blockCap := min(maxFrontier, frontierBlock)
			*s = frontierSlot{gen: f.gen, lastEdge: lastEdge, slice: slice, off: f.carve(blockCap), blockCap: int32(blockCap)}
			f.live++
			return s
		}
		if s.lastEdge == lastEdge && s.slice == slice {
			return s
		}
	}
}

// grow doubles the table and re-seats the current search's slots.
func (f *frontierStore) grow() {
	if f.gen == 0 {
		f.gen = 1 // stamp 0 is what never-used slots carry
	}
	old := f.slots
	f.slots = make([]frontierSlot, max(frontierMinSlots, 2*len(old)))
	for _, s := range old {
		if s.gen != f.gen {
			continue
		}
		i := f.probe(s.lastEdge, s.slice)
		for f.slots[i].gen == f.gen {
			i = (i + 1) & (len(f.slots) - 1)
		}
		f.slots[i] = s
	}
}

// carve reserves a block of n entries at the end of the slab.
func (f *frontierStore) carve(n int) int32 {
	off := len(f.slab)
	f.slab = slices.Grow(f.slab, n)[:off+n]
	return int32(off)
}

// entries returns the frontier's live entries. The view has room for
// in-place compaction but not for growth; add entries with push.
func (f *frontierStore) entries(s *frontierSlot) []frontierEntry {
	return f.slab[s.off : s.off+s.n : s.off+s.n]
}

// push appends e to the frontier, which must hold fewer than
// maxFrontier entries; a full block moves to one twice the size.
func (f *frontierStore) push(s *frontierSlot, e frontierEntry, maxFrontier int) {
	if s.n == s.blockCap {
		blockCap := min(maxFrontier, 2*int(s.blockCap))
		off := f.carve(blockCap)
		copy(f.slab[off:], f.slab[s.off:s.off+s.n])
		s.off, s.blockCap = off, int32(blockCap)
	}
	f.slab[s.off+s.n] = e
	s.n++
}

package hist

import (
	"math/bits"
	"unsafe"
)

// Arena is a bump allocator for the histogram working set of one
// search: flat []float64 blocks that back label mass vectors, plus a
// slab of Hist headers, so the hot routing loop neither heap-allocates
// nor creates per-label garbage. Freed buffers go onto power-of-two
// size-class free lists and are handed back by the next Alloc of a
// fitting size — dead search labels recycle their storage instead of
// waiting for the GC.
//
// An Arena serves one search at a time (it is not safe for concurrent
// use) and is designed to be pooled: Reset retains every block and
// reuses it for the next search, so a warmed arena allocates nothing
// at steady state. Memory handed out by an Arena is only valid until
// the owning search resets it — anything that escapes a search (a
// result distribution, a cache entry) must be cloned out first.
//
// The zero value is ready to use.
type Arena struct {
	blocks   [][]float64 // fixed-size blocks, reused across Reset
	blockIdx int         // index of the block being carved
	off      int         // carve offset within blocks[blockIdx]

	// free[c] holds recycled buffers of capacity exactly 1<<c.
	free [arenaMaxClass + 1][][]float64

	hists   [][]Hist // header slabs, reused across Reset
	histIdx int
	histOff int
}

const (
	// arenaBlockFloats is the flat block size: 16k floats = 128 KiB,
	// large enough that even generous searches touch a handful of
	// blocks, small enough that a pooled arena stays cheap to retain.
	arenaBlockFloats = 16384
	// arenaMaxClass caps the recycling size classes at 1<<20 floats;
	// larger requests (none arise in routing, where supports are
	// truncated at the budget horizon) fall back to the heap.
	arenaMaxClass = 20
	// arenaHistSlab is the Hist-header slab length. Slabs are never
	// moved or shrunk, so header pointers stay valid for the arena's
	// lifetime.
	arenaHistSlab = 1024
)

// sizeClass returns the smallest power-of-two exponent c with 1<<c >= n.
func sizeClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// Alloc returns a length-n float64 buffer from the arena. The contents
// are NOT zeroed — recycled buffers carry stale values — so callers
// must fully overwrite or clear it (ConvolveInto and friends do).
func (a *Arena) Alloc(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := sizeClass(n)
	if c > arenaMaxClass {
		return make([]float64, n)
	}
	if l := a.free[c]; len(l) > 0 {
		buf := l[len(l)-1]
		a.free[c] = l[:len(l)-1]
		return buf[:n]
	}
	span := 1 << c
	if span > arenaBlockFloats {
		// Oversized for block carving: dedicated heap slice; Free will
		// still recycle it through its class list until Reset.
		return make([]float64, n, span)
	}
	for {
		if a.blockIdx == len(a.blocks) {
			a.blocks = append(a.blocks, make([]float64, arenaBlockFloats))
		}
		if a.off+span <= arenaBlockFloats {
			buf := a.blocks[a.blockIdx][a.off : a.off+span : a.off+span]
			a.off += span
			return buf[:n]
		}
		a.blockIdx++
		a.off = 0
	}
}

// Free recycles a buffer previously returned by Alloc (identified by
// its capacity class) for reuse by later Allocs. Freeing a buffer the
// caller does not exclusively own corrupts whichever histogram still
// references it; routing only frees the distributions of labels proven
// dead. Buffers whose capacity is not an exact in-range size class
// (foreign slices) are dropped silently.
func (a *Arena) Free(p []float64) {
	c := cap(p)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	cls := sizeClass(c)
	if cls > arenaMaxClass {
		return
	}
	a.free[cls] = append(a.free[cls], p[:0])
}

// NewHist returns an arena-backed histogram: the header comes from the
// header slab and the mass vector is a fresh (uncleared) arena buffer
// of length n.
func (a *Arena) NewHist(min, width float64, n int) *Hist {
	h := a.newHeader()
	h.Min = min
	h.Width = width
	h.P = a.Alloc(n)
	return h
}

// NewHistZeroed is NewHist with the mass vector cleared, for kernels
// that accumulate into it.
func (a *Arena) NewHistZeroed(min, width float64, n int) *Hist {
	h := a.NewHist(min, width, n)
	clear(h.P)
	return h
}

// CloneHist returns an arena-backed deep copy of src.
func (a *Arena) CloneHist(src *Hist) *Hist {
	h := a.NewHist(src.Min, src.Width, len(src.P))
	copy(h.P, src.P)
	return h
}

// Recycle frees a histogram's mass buffer for reuse. The header itself
// stays in the slab until Reset (headers are small and slab-pooled);
// h must not be used afterwards.
func (a *Arena) Recycle(h *Hist) {
	if h == nil {
		return
	}
	a.Free(h.P)
	h.P = nil
}

// newHeader hands out the next Hist header from the slab.
func (a *Arena) newHeader() *Hist {
	if a.histIdx == len(a.hists) {
		a.hists = append(a.hists, make([]Hist, arenaHistSlab))
	}
	slab := a.hists[a.histIdx]
	if a.histOff == len(slab) {
		a.histIdx++
		a.histOff = 0
		return a.newHeader()
	}
	h := &slab[a.histOff]
	a.histOff++
	return h
}

// Bytes reports the arena's retained memory footprint: the float
// blocks plus the Hist header slabs, both of which survive Reset. It
// deliberately excludes oversized heap fallbacks (which the GC owns)
// — the number answers "how much memory does keeping this arena pooled
// cost", which is what the arena_bytes telemetry tracks.
func (a *Arena) Bytes() int64 {
	const histHeaderBytes = int64(unsafe.Sizeof(Hist{}))
	return int64(len(a.blocks))*arenaBlockFloats*8 +
		int64(len(a.hists))*arenaHistSlab*histHeaderBytes
}

// Reset invalidates every buffer and header handed out so far and
// makes the arena's memory available to the next search. Blocks and
// header slabs are retained, so a pooled arena reaches a steady state
// where searches allocate nothing.
func (a *Arena) Reset() {
	a.blockIdx = 0
	a.off = 0
	for c := range a.free {
		a.free[c] = a.free[c][:0]
	}
	for i := range a.hists {
		clear(a.hists[i])
	}
	a.histIdx = 0
	a.histOff = 0
}

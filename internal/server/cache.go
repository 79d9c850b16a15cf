package server

import (
	"hash/maphash"
	"sync"
	"sync/atomic"
)

// ShardedLRU is a fixed-capacity least-recently-used cache split across
// independently locked shards, so concurrent request handlers contend
// only per shard rather than on one global lock. Keys are distributed
// by their runtime hash; every operation takes exactly one shard lock.
//
// The cache is epoch-aware: every entry is tagged with the epoch it was
// computed under, and AdvanceEpoch(e) invalidates — in O(1) — every
// entry tagged with an older epoch. Get returns only entries whose tag
// equals the current epoch, lazily deleting stale ones it touches, so
// after a model hot swap bumps the epoch no pre-swap result can ever be
// served again. Epochs only move forward.
//
// A nil *ShardedLRU is a valid, permanently empty cache: Get misses,
// PutAt is a no-op, Stats is zero. The server uses that to represent
// "caching disabled" without branching at every call site.
type ShardedLRU[K comparable, V any] struct {
	seed   maphash.Seed
	epoch  atomic.Uint64
	shards []lruShard[K, V]
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries discarded because their epoch tag
	// was stale — the footprint of model hot swaps on the cache.
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	// Epoch is the cache's current validity epoch.
	Epoch uint64 `json:"epoch"`
}

// NewShardedLRU returns a cache holding at most capacity entries spread
// over the given number of shards (both floored at 1; shards is capped
// at capacity so every shard can hold at least one entry). A capacity
// <= 0 returns nil, the always-empty cache.
func NewShardedLRU[K comparable, V any](shards, capacity int) *ShardedLRU[K, V] {
	if capacity <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	c := &ShardedLRU[K, V]{
		seed:   maphash.MakeSeed(),
		shards: make([]lruShard[K, V], shards),
	}
	// Distribute the capacity exactly: the first capacity%shards shards
	// take one extra entry, so the shard capacities sum to capacity.
	per, extra := capacity/shards, capacity%shards
	for i := range c.shards {
		size := per
		if i < extra {
			size++
		}
		c.shards[i].capacity = size
		c.shards[i].entries = make(map[K]*lruNode[K, V], size)
	}
	return c
}

func (c *ShardedLRU[K, V]) shard(key K) *lruShard[K, V] {
	return &c.shards[maphash.Comparable(c.seed, key)%uint64(len(c.shards))]
}

// AdvanceEpoch moves the validity epoch forward to e (monotonic: older
// values are ignored), instantly invalidating every entry tagged with
// an earlier epoch. Stale entries are reclaimed lazily — on the Get
// that touches them or by ordinary LRU eviction.
func (c *ShardedLRU[K, V]) AdvanceEpoch(e uint64) {
	if c == nil {
		return
	}
	for {
		cur := c.epoch.Load()
		if e <= cur || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// Get returns the cached value for key and marks it most recently
// used. Entries whose epoch tag differs from the current epoch count
// as misses and are deleted on the spot.
func (c *ShardedLRU[K, V]) Get(key K) (V, bool) {
	if c == nil {
		var zero V
		return zero, false
	}
	return c.shard(key).get(key, c.epoch.Load())
}

// PutAt inserts or refreshes key, evicting the shard's least recently
// used entry when the shard is full. epoch tags the entry with the
// model generation that actually computed value. A tag older than the
// current epoch is admitted but can never be served — it is
// invalidated on first touch — so a result computed just before a swap
// never leaks past it.
func (c *ShardedLRU[K, V]) PutAt(key K, value V, epoch uint64) {
	if c == nil {
		return
	}
	c.shard(key).put(key, value, epoch)
}

// Stats aggregates hit/miss/eviction counts and occupancy across shards.
func (c *ShardedLRU[K, V]) Stats() CacheStats {
	var s CacheStats
	if c == nil {
		return s
	}
	s.Epoch = c.epoch.Load()
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Invalidations += sh.invalidations
		s.Entries += len(sh.entries)
		s.Capacity += sh.capacity
		sh.mu.Unlock()
	}
	return s
}

// lruNode is one entry in a shard's doubly linked recency list.
type lruNode[K comparable, V any] struct {
	key        K
	value      V
	epoch      uint64
	prev, next *lruNode[K, V]
}

// lruShard is an independently locked LRU: a map for lookup plus a
// recency list with head = most recently used.
type lruShard[K comparable, V any] struct {
	mu         sync.Mutex
	capacity   int
	entries    map[K]*lruNode[K, V]
	head, tail *lruNode[K, V]

	hits, misses, evictions, invalidations uint64
}

func (s *lruShard[K, V]) get(key K, epoch uint64) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.entries[key]
	if ok && n.epoch != epoch {
		if n.epoch < epoch {
			// Stale generation: reclaim it.
			s.unlink(n)
			delete(s.entries, key)
			s.invalidations++
		}
		// A tag *newer* than this reader's epoch view (the entry was
		// computed by a model that swapped in mid-request) is merely a
		// miss: it becomes servable as soon as the cache's epoch
		// catches up, so deleting it would throw away current work.
		ok = false
	}
	if !ok {
		s.misses++
		var zero V
		return zero, false
	}
	s.hits++
	s.moveToFront(n)
	return n.value, true
}

func (s *lruShard[K, V]) put(key K, value V, epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.entries[key]; ok {
		n.value = value
		n.epoch = epoch
		s.moveToFront(n)
		return
	}
	if len(s.entries) >= s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.key)
		s.evictions++
	}
	n := &lruNode[K, V]{key: key, value: value, epoch: epoch}
	s.entries[key] = n
	s.pushFront(n)
}

func (s *lruShard[K, V]) moveToFront(n *lruNode[K, V]) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *lruShard[K, V]) pushFront(n *lruNode[K, V]) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *lruShard[K, V]) unlink(n *lruNode[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

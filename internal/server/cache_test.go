package server

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedLRUBasic(t *testing.T) {
	c := NewShardedLRU[string, int](4, 64)
	if _, ok := c.Get("a"); ok {
		t.Error("empty cache should miss")
	}
	c.PutAt("a", 1, 0)
	c.PutAt("b", 2, 0)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("Get(a) = %v, %v", v, ok)
	}
	c.PutAt("a", 10, 0) // refresh
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("refreshed value = %v", v)
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 || s.Entries != 2 {
		t.Errorf("stats = %+v", s)
	}
	if s.Capacity < 64 {
		t.Errorf("capacity %d < requested 64", s.Capacity)
	}
}

func TestShardedLRUEvictsLeastRecentlyUsed(t *testing.T) {
	// One shard makes the recency order deterministic.
	c := NewShardedLRU[int, int](1, 3)
	c.PutAt(1, 1, 0)
	c.PutAt(2, 2, 0)
	c.PutAt(3, 3, 0)
	c.Get(1)         // 1 becomes MRU; LRU order now 2, 3, 1
	c.PutAt(4, 4, 0) // evicts 2
	if _, ok := c.Get(2); ok {
		t.Error("2 should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%d should still be cached", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestShardedLRUNilIsDisabled(t *testing.T) {
	var c *ShardedLRU[int, int]
	c.PutAt(1, 1, 0)
	if _, ok := c.Get(1); ok {
		t.Error("nil cache should never hit")
	}
	if s := c.Stats(); s != (CacheStats{}) {
		t.Errorf("nil stats = %+v", s)
	}
	if NewShardedLRU[int, int](4, 0) != nil {
		t.Error("capacity 0 should return the nil cache")
	}
}

func TestShardedLRUShardCapping(t *testing.T) {
	// More shards than capacity must not create zero-capacity shards.
	c := NewShardedLRU[int, int](64, 5)
	for i := 0; i < 100; i++ {
		c.PutAt(i, i, 0)
		if _, ok := c.Get(i); !ok {
			t.Fatalf("just-inserted key %d missing", i)
		}
	}
}

func TestShardedLRUConcurrent(t *testing.T) {
	c := NewShardedLRU[int, int](8, 256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := (w*31 + i) % 512
				if v, ok := c.Get(k); ok && v != k {
					t.Errorf("key %d holds %d", k, v)
					return
				}
				c.PutAt(k, k, 0)
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Entries > s.Capacity {
		t.Errorf("entries %d exceed capacity %d", s.Entries, s.Capacity)
	}
}

func BenchmarkShardedLRUGet(b *testing.B) {
	c := NewShardedLRU[int, int](16, 4096)
	for i := 0; i < 4096; i++ {
		c.PutAt(i, i, 0)
	}
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c.Get(i % 4096)
			i++
		}
	})
}

func BenchmarkShardedLRUMixed(b *testing.B) {
	for _, shards := range []int{1, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			c := NewShardedLRU[int, int](shards, 4096)
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					if i%4 == 0 {
						c.PutAt(i%8192, i, 0)
					} else {
						c.Get(i % 8192)
					}
					i++
				}
			})
		})
	}
}

func TestShardedLRUEpochInvalidation(t *testing.T) {
	c := NewShardedLRU[int, string](4, 32)
	c.PutAt(1, "old", 0)
	if v, ok := c.Get(1); !ok || v != "old" {
		t.Fatalf("Get(1) = %q, %v", v, ok)
	}

	c.AdvanceEpoch(5)
	if _, ok := c.Get(1); ok {
		t.Error("entry from epoch 0 survived AdvanceEpoch(5)")
	}
	if s := c.Stats(); s.Invalidations != 1 || s.Epoch != 5 {
		t.Errorf("stats after invalidation = %+v", s)
	}

	// A stale-tagged Put is admitted but can never be served.
	c.PutAt(2, "stale", 3)
	if _, ok := c.Get(2); ok {
		t.Error("entry tagged with an old epoch was served")
	}
	// A current-tagged Put serves normally.
	c.PutAt(3, "fresh", 5)
	if v, ok := c.Get(3); !ok || v != "fresh" {
		t.Errorf("Get(3) = %q, %v", v, ok)
	}

	// Epochs never move backwards.
	c.AdvanceEpoch(2)
	if e := c.Stats().Epoch; e != 5 {
		t.Errorf("epoch regressed to %d", e)
	}

	// Nil cache: epoch ops are no-ops.
	var nilCache *ShardedLRU[int, string]
	nilCache.AdvanceEpoch(9)
	if nilCache.Stats().Epoch != 0 {
		t.Error("nil cache should report epoch 0")
	}
}

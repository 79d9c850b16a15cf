package routing

import (
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/rng"
)

// TestFrontierStoreMatchesMapOfSlices drives the store and a plain
// map[key][]frontierEntry through the same random pushes, in-place
// compactions and swap-removes over many search generations — with a
// frontier cap above the starting block so blocks relocate, enough
// keys that the table regrows, and the generation stamp crossing its
// wrap-around — and demands identical frontiers in identical order.
func TestFrontierStoreMatchesMapOfSlices(t *testing.T) {
	type key struct {
		edge  graph.EdgeID
		slice int32
	}
	const maxFrontier = 37
	r := rng.New(5)
	var f frontierStore
	f.gen = math.MaxUint32 - 3
	for search := 0; search < 8; search++ {
		want := make(map[key][]frontierEntry)
		nKeys := 20 + r.Intn(600)
		for op := 0; op < 6000; op++ {
			k := key{graph.EdgeID(r.Intn(nKeys)), int32(r.Intn(3))}
			fs := f.slot(k.edge, k.slice, maxFrontier)
			got := f.entries(fs)
			if len(got) != len(want[k]) {
				t.Fatalf("search %d key %v: %d entries, want %d", search, k, len(got), len(want[k]))
			}
			for i := range got {
				if got[i] != want[k][i] {
					t.Fatalf("search %d key %v entry %d: %+v, want %+v", search, k, i, got[i], want[k][i])
				}
			}
			// Compact away a random subset in place, as the dominance
			// pass does, then swap-remove one entry, as eviction does.
			keep, ref := got[:0], want[k][:0]
			for i, fe := range got {
				if r.Intn(4) > 0 {
					keep, ref = append(keep, fe), append(ref, want[k][i])
				}
			}
			if len(keep) > 0 && r.Intn(3) == 0 {
				i := r.Intn(len(keep))
				keep[i], ref[i] = keep[len(keep)-1], ref[len(ref)-1]
				keep, ref = keep[:len(keep)-1], ref[:len(ref)-1]
			}
			fs.n = int32(len(keep))
			for n := r.Intn(4); n > 0 && int(fs.n) < maxFrontier; n-- {
				fe := frontierEntry{labelIdx: int32(op), ub: r.Float64()}
				f.push(fs, fe, maxFrontier)
				ref = append(ref, fe)
			}
			want[k] = ref
		}
		if f.live != len(want) {
			t.Fatalf("search %d: %d live frontiers, want %d", search, f.live, len(want))
		}
		f.reset()
	}
	if f.gen == 0 || f.gen > 8 {
		t.Fatalf("generation stamp %d did not wrap to a small non-zero value", f.gen)
	}
}

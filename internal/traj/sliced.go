package traj

import (
	"stochroute/internal/graph"
	"stochroute/internal/par"
)

// CollectSlices returns the temporal observation aggregate: one store per
// time-of-day slice of a k-slice day, over g on the given grid width,
// each holding the trajectories departing in its slice. One sequential
// SplitBySlice, then every slice's store collects its own bucket,
// concurrently (par.For). A store holds counts, so it is the same
// whatever the worker count. k < 2 yields one store holding everything.
func CollectSlices(g *graph.Graph, width float64, k int, trs []Trajectory) []*ObservationStore {
	buckets := SplitBySlice(trs, k)
	stores := make([]*ObservationStore, len(buckets))
	// Collecting cannot fail.
	_ = par.For(len(stores), 0, func(s int) error {
		stores[s] = NewObservationStore(g, width)
		stores[s].Collect(buckets[s])
		return nil
	})
	return stores
}

// SplitBySlice partitions trajectories by departure slice under a
// k-slice partition of the day. The result always has k buckets;
// trajectory order within a bucket follows the input. The trajectories
// are shared, not copied.
func SplitBySlice(trs []Trajectory, k int) [][]Trajectory {
	k = NumSlices(k)
	out := make([][]Trajectory, k)
	if k == 1 {
		out[0] = trs
		return out
	}
	for i := range trs {
		s := SliceIndex(trs[i].Departure, k)
		out[s] = append(out[s], trs[i])
	}
	return out
}

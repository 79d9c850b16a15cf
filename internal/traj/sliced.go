package traj

import (
	"stochroute/internal/graph"
	"stochroute/internal/par"
)

// SlicedObservations is the temporal observation aggregate: one
// ObservationStore per time-of-day slice, all sharing the same road
// graph and travel-time grid width (the shared edge grid), with
// trajectories bucketed by their departure slice. K = 1 degenerates to
// a single store holding everything — the classic time-homogeneous
// aggregate.
type SlicedObservations struct {
	k      int
	stores []*ObservationStore
}

// NewSlicedObservations returns an empty k-slice aggregate over g on
// the given grid width. k < 2 yields the single-slice aggregate.
func NewSlicedObservations(g *graph.Graph, width float64, k int) *SlicedObservations {
	k = NumSlices(k)
	so := &SlicedObservations{k: k, stores: make([]*ObservationStore, k)}
	for i := range so.stores {
		so.stores[i] = NewObservationStore(g, width)
	}
	return so
}

// K returns the number of time-of-day slices.
func (so *SlicedObservations) K() int { return so.k }

// Width returns the shared travel-time grid width.
func (so *SlicedObservations) Width() float64 { return so.stores[0].Width }

// Slice returns slice i's observation store.
func (so *SlicedObservations) Slice(i int) *ObservationStore { return so.stores[i] }

// ReplaceSlice swaps in a new store for slice i (the aggregate
// age-out path). The caller owns synchronisation, as with every other
// mutation.
func (so *SlicedObservations) ReplaceSlice(i int, s *ObservationStore) { so.stores[i] = s }

// Collect ingests trajectories, bucketing each by its departure slice:
// one sequential SplitBySlice, then every slice's store collects its own
// bucket, concurrently (par.For). A store holds counts, so it is the
// same whatever the worker count.
func (so *SlicedObservations) Collect(trs []Trajectory) {
	buckets := SplitBySlice(trs, so.k)
	// Collecting cannot fail.
	_ = par.For(so.k, func(s int) error {
		so.stores[s].Collect(buckets[s])
		return nil
	})
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

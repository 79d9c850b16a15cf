package hybrid

import (
	"errors"
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/traj"
)

// TemporalScratchCoster is the optional capability contract of
// time-expanded routing: a Coster whose cost model may change as trip
// time accumulates. A Coster answers every extension with one model —
// for a time-sliced engine, the model of the departure slice — so a
// long rush-hour trip keeps paying peak costs hours after congestion
// clears. A TemporalScratchCoster instead re-selects the serving model
// per extension from the departure plus the label's accumulated mean
// cost, so long trips transition smoothly from peak to off-peak models
// mid-search.
//
// The routing kernel takes the time-expanded path only when
// Options.TimeExpanded is set AND the coster implements this
// interface; any other coster is routed classically.
//
// ExtendElapsedInto(s, 0, ...) must be bit-identical to ExtendInto, and
// on a 1-slice model ExtendElapsedInto is bit-identical to ExtendInto
// for EVERY elapsed value, which is what makes K=1 time-expanded
// searches provably equal to the classic path. The heap forms the
// interface carries through ScratchCoster, and ExtendElapsed, are kept
// for the benchmark harness's traced coster only; no code in this
// module calls them.
type TemporalScratchCoster interface {
	ScratchCoster

	// SliceAtElapsed maps an accumulated trip time (seconds since the
	// trip's departure) to the time-of-day slice whose model serves an
	// extension happening that far into the trip.
	SliceAtElapsed(elapsed float64) int

	// MinEdgeTimeWithin returns an admissible lower bound on e's travel
	// time under every slice the trip can consult while its elapsed
	// mean stays within horizon seconds of departure — Coster.MinEdgeTime's
	// guarantee for ExtendElapsedInto at every elapsed up to horizon. The
	// routing potentials are built from this bound, and the search's
	// parent-side tests shift by it, so that potential and pivot
	// pruning stay conservative across every model the search can
	// actually reach; when the horizon stays inside the departure
	// slice, the bound degenerates to that slice's MinEdgeTime and the
	// whole search is bit-identical to departure-slice routing.
	MinEdgeTimeWithin(e graph.EdgeID, horizon float64) float64

	// ExtendElapsed is the heap form of ExtendElapsedInto (see above).
	ExtendElapsed(elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist

	// ExtendElapsedInto is ExtendInto under the model of
	// SliceAtElapsed(elapsed): the distribution of the path obtained by
	// appending next to a path whose distribution is virtual, whose
	// final edge is lastEdge, and whose accumulated mean cost is
	// elapsed — the form the routing kernel calls.
	ExtendElapsedInto(s *Scratch, elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist
}

// TimeExpandedCoster returns a coster over the set for one trip
// departing at depart seconds since midnight: every extension
// re-selects the serving slice from depart plus the accumulated mean
// cost the routing search hands it, so the cost model follows the trip
// across slice boundaries. The base Coster methods (InitialHistInto,
// ExtendInto) answer under the departure slice, making the first edge
// of every trip — and, on a 1-slice set, everything — identical to the
// classic slice-at-departure path.
//
// qs optionally collects per-request decision telemetry exactly like
// Model.WithStats (nil disables). The returned coster memoises
// admissible-bound state per horizon and tallies into qs, so it serves
// ONE query at a time — hand each query its own (the set itself stays
// shared and read-only). Like WithStats, the first such coster bound to
// a non-nil qs lives inside it.
func (ms *ModelSet) TimeExpandedCoster(depart float64, qs *QueryStats) TemporalScratchCoster {
	var tc *timeExpandedCoster
	if qs != nil && qs.temporal.qs == nil {
		tc = &qs.temporal
	} else {
		tc = new(timeExpandedCoster)
	}
	*tc = timeExpandedCoster{set: ms, depart: depart, qs: qs}
	return tc
}

// timeExpandedCoster is the ModelSet's TemporalScratchCoster: slice
// selection per extension, departure-slice defaults for the plain
// Coster surface, and horizon-memoised admissible bounds.
type timeExpandedCoster struct {
	set    *ModelSet
	depart float64
	qs     *QueryStats

	// The slices reachable within the last requested horizon are a
	// contiguous run (mod K) from the departure slice: minFirst is that
	// slice, minCrossed the number of boundaries the horizon crosses
	// after it. Recomputed when the horizon changes (in practice once
	// per query).
	minHorizon float64
	minFirst   int
	minCrossed int
	haveMin    bool
}

// departSlice is the slice serving extensions at elapsed 0.
func (tc *timeExpandedCoster) departSlice() int { return tc.set.SliceOf(tc.depart) }

// Width implements Coster.
func (tc *timeExpandedCoster) Width() float64 { return tc.set.At(0).Width() }

// InitialHistInto implements Coster under the departure slice's model.
func (tc *timeExpandedCoster) InitialHistInto(s *Scratch, e graph.EdgeID) *hist.Hist {
	return tc.set.At(tc.departSlice()).InitialHistInto(s, e)
}

// MinEdgeTime implements Coster: the bound must hold under every model
// the coster can answer with, so it is the minimum across all slices.
// The routing potentials of a time-expanded search use the tighter
// MinEdgeTimeWithin instead.
func (tc *timeExpandedCoster) MinEdgeTime(e graph.EdgeID) float64 {
	min := math.Inf(1)
	for _, m := range tc.set.Models() {
		if t := m.MinEdgeTime(e); t < min {
			min = t
		}
	}
	return min
}

// SliceAtElapsed implements TemporalScratchCoster.
func (tc *timeExpandedCoster) SliceAtElapsed(elapsed float64) int {
	return tc.set.SliceOf(tc.depart + elapsed)
}

// MinEdgeTimeWithin implements TemporalScratchCoster: the minimum of
// MinEdgeTime across the slices overlapped by
// [depart, depart+horizon], memoised per horizon. The search calls it
// per out-edge, so it allocates nothing.
func (tc *timeExpandedCoster) MinEdgeTimeWithin(e graph.EdgeID, horizon float64) float64 {
	if !tc.haveMin || tc.minHorizon != horizon {
		tc.memoiseSlicesWithin(horizon)
	}
	k := tc.set.K()
	min := math.Inf(1)
	for i := 0; i <= tc.minCrossed; i++ {
		if t := tc.set.At((tc.minFirst + i) % k).MinEdgeTime(e); t < min {
			min = t
		}
	}
	return min
}

// memoiseSlicesWithin records the run of slices whose model a trip
// departing at tc.depart can consult before its elapsed mean exceeds
// horizon.
func (tc *timeExpandedCoster) memoiseSlicesWithin(horizon float64) {
	k := tc.set.K()
	tc.minHorizon = horizon
	tc.haveMin = true
	tc.minFirst = tc.departSlice()
	if horizon < 0 {
		horizon = 0
	}
	if k == 1 || horizon >= traj.DaySeconds {
		tc.minCrossed = k - 1
		return
	}
	// Count slice boundaries crossed within the horizon, starting from
	// the departure's offset into its slice.
	into := math.Mod(tc.depart, traj.DaySeconds)
	if into < 0 {
		into += traj.DaySeconds
	}
	into -= traj.SliceStart(tc.minFirst, k)
	tc.minCrossed = int((into + horizon) / traj.SliceDuration(k))
	if tc.minCrossed >= k {
		tc.minCrossed = k - 1
	}
}

// ExtendInto implements Coster, equivalent to
// ExtendElapsedInto(s, 0, ...).
func (tc *timeExpandedCoster) ExtendInto(s *Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	return tc.ExtendElapsedInto(s, 0, virtual, lastEdge, next)
}

// ExtendElapsedInto implements TemporalScratchCoster: the hybrid step
// under the model of SliceAtElapsed(elapsed), tallied into the
// per-request stats.
func (tc *timeExpandedCoster) ExtendElapsedInto(s *Scratch, elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	out, estimated := tc.set.At(tc.SliceAtElapsed(elapsed)).extendInto(s, virtual, lastEdge, next)
	tc.qs.tally(estimated)
	return out
}

// InitialHist, Extend and ExtendElapsed are the heap forms, for the
// benchmark harness's traced coster only (see TemporalScratchCoster).
func (tc *timeExpandedCoster) InitialHist(e graph.EdgeID) *hist.Hist {
	return onScratch(func(s *Scratch) *hist.Hist { return tc.InitialHistInto(s, e) })
}
func (tc *timeExpandedCoster) Extend(v *hist.Hist, last, next graph.EdgeID) *hist.Hist {
	return onScratch(func(s *Scratch) *hist.Hist { return tc.ExtendInto(s, v, last, next) })
}
func (tc *timeExpandedCoster) ExtendElapsed(el float64, v *hist.Hist, last, next graph.EdgeID) *hist.Hist {
	return onScratch(func(s *Scratch) *hist.Hist { return tc.ExtendElapsedInto(s, el, v, last, next) })
}

// PathCostElapsed computes the travel-time distribution of a full path
// under time-expanded slice selection: the path so far is a virtual
// edge whose accumulated mean cost selects the model extending it, so
// the distribution of a long trip reflects every slice it traverses.
// It returns the distribution together with the per-edge slice
// sequence (slices[i] is the slice whose model costed edges[i]).
// PathCostElapsed is to PathCost what a time-expanded search is to a
// departure-slice search; on a 1-slice coster the two are identical.
func PathCostElapsed(c TemporalScratchCoster, edges []graph.EdgeID) (*hist.Hist, []int, error) {
	if len(edges) == 0 {
		return nil, nil, errors.New("hybrid: PathCostElapsed on empty path")
	}
	slices := make([]int, len(edges))
	h := onScratch(func(s *Scratch) *hist.Hist {
		slices[0] = c.SliceAtElapsed(0)
		h := c.InitialHistInto(s, edges[0])
		for i := 1; i < len(edges); i++ {
			elapsed := h.Mean()
			slices[i] = c.SliceAtElapsed(elapsed)
			next := c.ExtendElapsedInto(s, elapsed, h, edges[i-1], edges[i])
			s.Arena.Recycle(h)
			h = next
		}
		return h
	})
	return h, slices, nil
}

var _ TemporalScratchCoster = (*timeExpandedCoster)(nil)

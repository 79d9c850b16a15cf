package hybrid

import (
	"errors"
	"fmt"

	"stochroute/internal/graph"
	"stochroute/internal/par"
	"stochroute/internal/traj"
)

// ModelSet is the temporal cost model: one trained hybrid Model (with
// its attached per-slice knowledge base) per time-of-day slice, behind
// a single façade. Slice selection happens exactly once per query —
// SliceOf maps a departure timestamp to a slice, At returns that
// slice's Model, and the returned Model implements the unchanged
// Coster/ScratchCoster contracts, so the routing kernel below never
// sees time. A 1-slice set is bit-identical to serving the single
// model directly. The slices are independent of one another — none reads
// another's knowledge base, weights or observations — which is what lets
// TrainSlices train them concurrently and an online rebuild replace one
// (WithSlice) while the rest keep serving.
type ModelSet struct {
	models []*Model
}

// NewModelSet assembles a set from per-slice models (index = slice).
// All models must be non-nil and share one grid width.
func NewModelSet(models []*Model) (*ModelSet, error) {
	if len(models) == 0 {
		return nil, errors.New("hybrid: empty model set")
	}
	var width float64
	for i, m := range models {
		if m == nil {
			return nil, fmt.Errorf("hybrid: model set slice %d is nil", i)
		}
		var w float64
		switch {
		case m.KB != nil:
			w = m.KB.Width
		case m.Estimator != nil:
			w = m.Estimator.Width
		default:
			return nil, fmt.Errorf("hybrid: model set slice %d has neither knowledge base nor estimator", i)
		}
		if i == 0 {
			width = w
		} else if w != width {
			return nil, fmt.Errorf("hybrid: model set slice %d width %v != slice 0 width %v", i, w, width)
		}
	}
	return &ModelSet{models: append([]*Model(nil), models...)}, nil
}

// SingleModelSet wraps one time-homogeneous model as a 1-slice set.
func SingleModelSet(m *Model) *ModelSet { return &ModelSet{models: []*Model{m}} }

// K returns the number of time-of-day slices.
func (ms *ModelSet) K() int { return len(ms.models) }

// SliceOf maps a departure timestamp (seconds since midnight, wrapped)
// to the serving slice.
func (ms *ModelSet) SliceOf(depart float64) int {
	return traj.SliceIndex(depart, len(ms.models))
}

// At returns slice i's model. Out-of-range slices clamp to the valid
// range so a corrupted index can never panic the query path.
func (ms *ModelSet) At(i int) *Model {
	if i < 0 {
		i = 0
	}
	if i >= len(ms.models) {
		i = len(ms.models) - 1
	}
	return ms.models[i]
}

// Models returns the underlying per-slice models (index = slice). The
// slice is shared; callers must not mutate it.
func (ms *ModelSet) Models() []*Model { return ms.models }

// WithSlice returns a copy of the set with slice i's model replaced —
// the hot-swap unit of per-slice online rebuilds. The other slices
// keep serving their generation.
func (ms *ModelSet) WithSlice(i int, m *Model) (*ModelSet, error) {
	if i < 0 || i >= len(ms.models) {
		return nil, fmt.Errorf("hybrid: slice %d outside [0, %d)", i, len(ms.models))
	}
	if m == nil {
		return nil, errors.New("hybrid: WithSlice with nil model")
	}
	models := append([]*Model(nil), ms.models...)
	models[i] = m
	return &ModelSet{models: models}, nil
}

// MinEdgeTimeAcrossSlices returns the minimum optimistic time of edge e
// across every slice's model — the pointwise-min metric over the whole
// day. It lower-bounds MinEdgeTimeWithin for every horizon (the min over
// the slices reachable in a horizon can only be at least the min over
// all slices), so distance tables built on it (e.g. ALT landmark tables,
// routing.BuildALT) stay admissible for time-expanded searches of any
// budget. On a 1-slice set it is the model's MinEdgeTime verbatim.
func (ms *ModelSet) MinEdgeTimeAcrossSlices(e graph.EdgeID) float64 {
	min := ms.models[0].MinEdgeTime(e)
	for _, m := range ms.models[1:] {
		if t := m.MinEdgeTime(e); t < min {
			min = t
		}
	}
	return min
}

// TrainSlices runs the full training pipeline once per time-of-day
// slice (cfg.Slices of them): each slice gets its own knowledge base
// built from its slice of the observation aggregate and its own
// trained model. Slice counts must match: sobs.K() == NumSlices
// (cfg.Slices). trajsBySlice is the matching partition of the training
// trajectories (see traj.SplitBySlice). Returns the set plus one
// evaluation report per slice.
//
// The slices train concurrently (par.For: GOMAXPROCS workers at most),
// each run single-threaded. A slice's model and report depend only on
// that slice's observations and trajectories, g and cfg — every run
// seeds its own generator from cfg.Seed — so the set is the same bits on
// any number of cores, and when slices fail the error is the lowest
// failing slice's. A non-nil oracle is consulted from several goroutines
// at once and must be safe for that.
func TrainSlices(g *graph.Graph, sobs *traj.SlicedObservations, trajsBySlice [][]traj.Trajectory, oracle Oracle, cfg Config) (*ModelSet, []*EvalReport, error) {
	k := traj.NumSlices(cfg.Slices)
	if sobs.K() != k {
		return nil, nil, fmt.Errorf("hybrid: %d-slice observations for %d-slice training", sobs.K(), k)
	}
	if len(trajsBySlice) != k {
		return nil, nil, fmt.Errorf("hybrid: %d trajectory buckets for %d-slice training", len(trajsBySlice), k)
	}
	models := make([]*Model, k)
	reports := make([]*EvalReport, k)
	err := par.For(k, func(s int) error {
		kb, err := BuildKnowledgeBase(g, sobs.Slice(s), cfg.Width, cfg.MinPairObs)
		if err != nil {
			return fmt.Errorf("hybrid: slice %d knowledge base: %w", s, err)
		}
		models[s], reports[s], err = Train(kb, sobs.Slice(s), trajsBySlice[s], oracle, cfg)
		if err != nil {
			return fmt.Errorf("hybrid: slice %d training: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	set, err := NewModelSet(models)
	if err != nil {
		return nil, nil, err
	}
	return set, reports, nil
}

package routing

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
)

// landmarkCellMeters is the cell size of the spatial grid whose cell
// representatives NewALTSet selects landmarks from.
const landmarkCellMeters = 500

// ALTSet is the ALT preprocessing of one hybrid.ModelSet: a table per
// slice, built on that slice model's MinEdgeTime and serving its
// departure-slice queries, and one built on the set's
// MinEdgeTimeAcrossSlices, serving time-expanded queries (admissible for
// every slice such a search can consult). Metrics that are equal bit for
// bit share one table. A table depends only on its metric and landmarks
// and is immutable once built, so sharing it changes no potential; on a
// 1-slice set, for one, the min-across metric is the slice's own and
// the set holds a single table. An ALTSet is immutable and safe for
// concurrent queries.
type ALTSet struct {
	g         *graph.Graph
	landmarks []graph.VertexID
	set       *hybrid.ModelSet // the models the tables were built on
	slices    []*ALT
	min       *ALT
}

// NewALTSet selects count landmarks by farthest-point traversal over the
// cell representatives of a 500 m spatial grid (SelectLandmarks) and
// builds set's tables over them: one BuildALT per distinct metric.
func NewALTSet(g *graph.Graph, set *hybrid.ModelSet, count int) (*ALTSet, error) {
	if count < 1 {
		return nil, fmt.Errorf("routing: NewALTSet with landmark count %d", count)
	}
	lms := SelectLandmarks(g, graph.NewGridIndex(g, landmarkCellMeters).CellRepresentatives(), count)
	if len(lms) == 0 {
		return nil, errors.New("routing: no landmark candidates")
	}
	return buildALTSet(g, set, lms, nil)
}

// Rebuild returns set's tables over a's landmarks, for a generation that
// replaces the one a was built for. A slice still served by the model a
// was built on keeps a's table, and the min-across table is kept when
// every slice is. Each other metric is read into a vector and compared
// bit for bit with the kept slices' metrics and those built before it;
// it shares the table of the first that matches, or gets a new one.
func (a *ALTSet) Rebuild(set *hybrid.ModelSet) (*ALTSet, error) {
	return buildALTSet(a.g, set, a.landmarks, a)
}

func buildALTSet(g *graph.Graph, set *hybrid.ModelSet, lms []graph.VertexID, prev *ALTSet) (*ALTSet, error) {
	a := &ALTSet{g: g, landmarks: lms, set: set, slices: make([]*ALT, set.K())}
	kept := 0
	for s := range a.slices {
		if prev != nil && s < prev.set.K() && prev.set.At(s) == set.At(s) {
			a.slices[s] = prev.slices[s]
			kept++
		}
	}
	if prev != nil && kept == set.K() {
		a.min = prev.min
		return a, nil
	}
	// tabled holds each distinct metric read so far, with its table.
	type tabledMetric struct {
		weights []float64
		table   *ALT
	}
	var tabled []tabledMetric
	table := func(w WeightFunc) (*ALT, error) {
		weights, err := edgeWeights(g, w)
		if err != nil {
			return nil, err
		}
		for _, m := range tabled {
			if sameBits(m.weights, weights) {
				return m.table, nil
			}
		}
		t, err := buildALT(g, weights, lms)
		if err != nil {
			return nil, err
		}
		tabled = append(tabled, tabledMetric{weights, t})
		return t, nil
	}
	for s, t := range a.slices {
		if t != nil {
			weights, err := edgeWeights(g, set.At(s).MinEdgeTime)
			if err != nil {
				return nil, err
			}
			tabled = append(tabled, tabledMetric{weights, t})
		}
	}
	for s, t := range a.slices {
		if t != nil {
			continue
		}
		var err error
		if a.slices[s], err = table(set.At(s).MinEdgeTime); err != nil {
			return nil, fmt.Errorf("routing: ALT tables for slice %d: %w", s, err)
		}
	}
	var err error
	if a.min, err = table(set.MinEdgeTimeAcrossSlices); err != nil {
		return nil, fmt.Errorf("routing: min-across-slices ALT tables: %w", err)
	}
	return a, nil
}

// sameBits reports whether two equally long metrics are equal bit for
// bit.
func sameBits(x, y []float64) bool {
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// Slice returns the table serving departure-slice queries of slice s.
func (a *ALTSet) Slice(s int) *ALT { return a.slices[s] }

// Min returns the table on the min-across-slices metric, serving
// time-expanded queries.
func (a *ALTSet) Min() *ALT { return a.min }

// Landmarks returns the landmarks every table is built over.
func (a *ALTSet) Landmarks() []graph.VertexID { return a.landmarks }

// Tables returns the distinct tables, each once, in the order the
// slices and then the min-across metric first use them. Their
// TableBytes add up to what the set holds resident.
func (a *ALTSet) Tables() []*ALT {
	var out []*ALT
	for _, t := range slices.Concat(a.slices, []*ALT{a.min}) {
		if !slices.Contains(out, t) {
			out = append(out, t)
		}
	}
	return out
}

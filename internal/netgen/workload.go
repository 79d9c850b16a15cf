package netgen

import (
	"fmt"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/rng"
)

// DistanceCategory is one of the paper's query distance bands.
type DistanceCategory struct {
	LoKm float64 // inclusive
	HiKm float64 // exclusive
}

// String renders the band as the paper does, e.g. "[1, 5)".
func (c DistanceCategory) String() string {
	return fmt.Sprintf("[%g, %g)", c.LoKm, c.HiKm)
}

// Contains reports whether the straight-line distance km lies in the band.
func (c DistanceCategory) Contains(km float64) bool {
	return km >= c.LoKm && km < c.HiKm
}

// PaperCategories returns the three bands of the empirical study:
// [0, 1), [1, 5) and [5, 10) km.
func PaperCategories() []DistanceCategory {
	return []DistanceCategory{{0, 1}, {1, 5}, {5, 10}}
}

// Query is a routing request sampled from the workload generator.
type Query struct {
	Source graph.VertexID
	Dest   graph.VertexID
	DistKm float64 // straight-line source→dest distance
}

// WorkloadGen samples source/destination queries within distance bands,
// mirroring the paper's per-category query sets.
type WorkloadGen struct {
	g   *graph.Graph
	idx *graph.GridIndex
	rng *rng.RNG
}

// NewWorkloadGen returns a generator over g seeded deterministically.
func NewWorkloadGen(g *graph.Graph, seed uint64) *WorkloadGen {
	return &WorkloadGen{
		g:   g,
		idx: graph.NewGridIndex(g, 500),
		rng: rng.New(seed),
	}
}

// SampleCategory draws n queries whose straight-line distance falls in
// cat. It returns an error if the graph is too small to produce the
// requested band after a bounded number of attempts per query.
func (w *WorkloadGen) SampleCategory(cat DistanceCategory, n int) ([]Query, error) {
	queries := make([]Query, 0, n)
	const maxAttemptsPerQuery = 4000
	for len(queries) < n {
		found := false
		for attempt := 0; attempt < maxAttemptsPerQuery; attempt++ {
			s := graph.VertexID(w.rng.Intn(w.g.NumVertices()))
			// Aim at a point a uniform distance inside the band in a
			// random direction, then snap to the nearest vertex.
			distKm := w.rng.Range(cat.LoKm, cat.HiKm)
			if cat.LoKm == 0 && distKm < 0.05 {
				distKm = 0.05 // avoid degenerate s==d queries
			}
			bearing := w.rng.Range(0, 360)
			target := geo.Destination(w.g.Point(s), bearing, distKm*1000)
			d := w.idx.Nearest(target)
			if d == graph.NoVertex || d == s {
				continue
			}
			actual := geo.Haversine(w.g.Point(s), w.g.Point(d)) / 1000
			if !cat.Contains(actual) || (actual*1000 < 50) {
				continue
			}
			queries = append(queries, Query{Source: s, Dest: d, DistKm: actual})
			found = true
			break
		}
		if !found {
			return queries, fmt.Errorf(
				"netgen: could not sample a %s km query after %d attempts (graph span %.1f km)",
				cat, maxAttemptsPerQuery, w.g.BBox().DiagonalMeters()/1000)
		}
	}
	return queries, nil
}

package routing

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/par"
	"stochroute/internal/pqueue"
)

// PotentialFunc returns an admissible lower bound on the optimistic cost
// of travelling from v to the destination the function was created for.
// +Inf means v provably cannot reach the destination.
type PotentialFunc func(v graph.VertexID) float64

// PotentialSource supplies per-query potential functions to the PBR
// search. Implementations must return potentials that are admissible
// with respect to the optimistic edge weights the search consults:
// h(v) <= true minimum weight of any v→dest path. The returned release
// function (which may be nil) is called once when the query is done, so
// sources can pool per-query scratch state. Potentials must be safe for
// concurrent use by independent queries.
type PotentialSource interface {
	Potentials(dest graph.VertexID) (PotentialFunc, func())
}

// ALT holds precomputed landmark distance tables (Goldberg & Harrelson,
// SODA'05) for a fixed graph and optimistic edge-weight metric. For each
// landmark ℓ it stores dist(ℓ→v) and dist(v→ℓ) for every vertex v; the
// triangle inequality then bounds dist(v→t) from below by
//
//	max( dist(v→ℓ) − dist(t→ℓ),  dist(ℓ→t) − dist(ℓ→v) )
//
// maximised over landmarks and clamped at zero. Building costs 2L
// Dijkstras once per model generation; evaluating a potential costs 2L
// flops per vertex per query (memoised), replacing the full backward
// Dijkstra that exact potentials pay per query.
//
// The tables hold float32, 2·L·V·4 B in all. Each distance is rounded to
// the nearest float32, and the build records the largest rounding error
// over the finite entries as slack; a potential is the bound above less
// 2·slack, clamped at zero, because each of its two terms reads two
// rounded entries. Rounding every entry down would not do: the
// destination's entry is subtracted, so it would have to round up. On a
// grid-aligned metric every distance is an integer below 2²⁴, slack is
// 0 and every potential has the bits of a float64 table's. A finite
// distance beyond float32 range fails the build; it is never stored as
// +Inf, which would read as unreachable.
//
// An ALT instance is immutable after BuildALT and safe for concurrent
// queries.
type ALT struct {
	g         *graph.Graph
	landmarks []graph.VertexID
	// Transposed flat tables of length V*L, indexed [v*L + i]: the L
	// landmark distances of one vertex are contiguous — at L = 8 a row is
	// half a cache line.
	fromLm []float32 // fromLm[v*L+i] = dist(landmarks[i] → v), rounded
	toLm   []float32 // toLm[v*L+i]   = dist(v → landmarks[i]), rounded
	slack  float64   // largest |float32(d) − d| over the finite entries

	memoPool sync.Pool // *altMemo, per-query scratch
}

type altMemo struct {
	t      *ALT
	h      []float64 // per-vertex memoised potential, -1 = not computed
	destTo []float64 // toLm row of the query destination
	destFr []float64 // fromLm row of the query destination
	fn     PotentialFunc
	rel    func()
}

var _ PotentialSource = (*ALT)(nil)

// TableBytes returns the memory footprint of the distance tables.
func (t *ALT) TableBytes() int64 {
	return int64(len(t.fromLm)+len(t.toLm)) * 4
}

// SelectLandmarks picks count landmarks from candidates by deterministic
// farthest-point traversal over vertex coordinates: the first landmark is
// the candidate farthest from the bounding-box centre, and each further
// landmark maximises the distance to its nearest already-chosen landmark.
// This spreads landmarks to the periphery, where they produce the
// tightest triangle-inequality bounds for long queries. A nil candidate
// slice means all vertices; typically callers pass one representative
// per spatial-grid cell (GridIndex.CellRepresentatives) to keep selection
// cost independent of graph size.
func SelectLandmarks(g *graph.Graph, candidates []graph.VertexID, count int) []graph.VertexID {
	if count <= 0 {
		return nil
	}
	if candidates == nil {
		candidates = make([]graph.VertexID, g.NumVertices())
		for i := range candidates {
			candidates[i] = graph.VertexID(i)
		}
	}
	if count >= len(candidates) {
		out := make([]graph.VertexID, len(candidates))
		copy(out, candidates)
		return out
	}
	bb := g.BBox()
	centre := geo.Point{Lat: (bb.MinLat + bb.MaxLat) / 2, Lon: (bb.MinLon + bb.MaxLon) / 2}
	best, bestD := 0, -1.0
	for i, v := range candidates {
		if d := geo.ApproxDistance(centre, g.Point(v)); d > bestD {
			best, bestD = i, d
		}
	}
	chosen := make([]graph.VertexID, 0, count)
	chosen = append(chosen, candidates[best])
	// minDist[i] = distance from candidates[i] to its nearest chosen landmark.
	minDist := make([]float64, len(candidates))
	for i, v := range candidates {
		minDist[i] = geo.ApproxDistance(g.Point(chosen[0]), g.Point(v))
	}
	for len(chosen) < count {
		best, bestD = 0, -1.0
		for i, d := range minDist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		next := candidates[best]
		chosen = append(chosen, next)
		for i, v := range candidates {
			if d := geo.ApproxDistance(g.Point(next), g.Point(v)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}
	return chosen
}

// BuildALT runs 2L Dijkstras (forward from and backward to each landmark)
// under the optimistic weights w and assembles the distance tables. The
// weights must be the same metric — or a lower bound of the metric — that
// later searches consult, or the resulting potentials lose admissibility.
//
// w is read once per edge, in edge order, before any sweep starts; a
// negative or NaN weight fails the build there, naming the lowest such
// edge. +Inf is a weight, not an error: it closes the edge, and what only
// closed edges reach is unreachable, which the tables record as +Inf and
// the potentials understand. A finite distance above math.MaxFloat32
// fails the build. The 2L sweeps are independent jobs run through
// par.For — each fills its own scratch and writes only its own column of
// one table — so the tables hold the same bits on any number of cores.
func BuildALT(g *graph.Graph, w WeightFunc, landmarks []graph.VertexID) (*ALT, error) {
	if len(landmarks) == 0 {
		return nil, errors.New("routing: BuildALT needs at least one landmark")
	}
	weights, err := edgeWeights(g, w)
	if err != nil {
		return nil, err
	}
	return buildALT(g, weights, landmarks)
}

// edgeWeights reads w once per edge, in edge order, into a vector,
// failing on the lowest edge whose weight is negative or NaN.
func edgeWeights(g *graph.Graph, w WeightFunc) ([]float64, error) {
	weights := make([]float64, g.NumEdges())
	for e := range weights {
		we := w(graph.EdgeID(e))
		if we < 0 || math.IsNaN(we) {
			return nil, fmt.Errorf("routing: negative or NaN weight %v on edge %d", we, e)
		}
		weights[e] = we
	}
	return weights, nil
}

// buildALT is BuildALT on weights edgeWeights has read and checked.
func buildALT(g *graph.Graph, weights []float64, landmarks []graph.VertexID) (*ALT, error) {
	n := g.NumVertices()
	l := len(landmarks)
	t := &ALT{
		g:         g,
		landmarks: append([]graph.VertexID(nil), landmarks...),
		fromLm:    make([]float32, n*l),
		toLm:      make([]float32, n*l),
	}
	type sweepScratch struct {
		dist []float64
		pq   *pqueue.IndexedHeap
	}
	scratch := sync.Pool{New: func() any {
		return &sweepScratch{dist: make([]float64, n), pq: pqueue.NewIndexedHeap(n)}
	}}
	// Job 2i is landmark i's forward sweep, job 2i+1 its backward one;
	// with the weights already checked a sweep fails only on a distance
	// float32 cannot hold.
	slack := make([]float64, 2*l) // per job
	err := par.For(2*l, func(job int) error {
		i, backward, table := job/2, job%2 == 1, t.fromLm
		if backward {
			table = t.toLm
		}
		sc := scratch.Get().(*sweepScratch)
		defer scratch.Put(sc)
		landmarkSweep(g, weights, landmarks[i], backward, sc.dist, sc.pq)
		for v, d := range sc.dist {
			if d > math.MaxFloat32 && !math.IsInf(d, 1) {
				return fmt.Errorf("routing: distance %v between landmark %d and vertex %d exceeds float32 range", d, landmarks[i], v)
			}
			table[v*l+i] = float32(d)
			// An unreachable vertex's error is NaN, which > rejects.
			if e := math.Abs(float64(float32(d)) - d); e > slack[job] {
				slack[job] = e
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.slack = slices.Max(slack)
	t.memoPool.New = func() any {
		m := &altMemo{
			t:      t,
			h:      make([]float64, n),
			destTo: make([]float64, l),
			destFr: make([]float64, l),
		}
		m.fn = m.potential
		m.rel = func() { t.memoPool.Put(m) }
		return m
	}
	return t, nil
}

// landmarkSweep fills dist with single-source shortest-path distances
// from (forward) or to (backward) root under the per-edge weights, which
// BuildALT has already validated, reusing the caller's scratch.
func landmarkSweep(g *graph.Graph, weights []float64, root graph.VertexID, backward bool, dist []float64, pq *pqueue.IndexedHeap) {
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[root] = 0
	pq.Reset(len(dist))
	pq.PushOrDecrease(int(root), 0)
	for pq.Len() > 0 {
		vi, d, _ := pq.Pop()
		v := graph.VertexID(vi)
		if d > dist[v] {
			continue
		}
		var edges []graph.EdgeID
		if backward {
			edges = g.In(v)
		} else {
			edges = g.Out(v)
		}
		for _, e := range edges {
			var to graph.VertexID
			if backward {
				to = g.Edge(e).From
			} else {
				to = g.Edge(e).To
			}
			if nd := d + weights[e]; nd < dist[to] {
				dist[to] = nd
				pq.PushOrDecrease(int(to), nd)
			}
		}
	}
}

// Potentials implements PotentialSource. The returned function memoises
// the triangle-inequality bound per vertex, so each vertex the search
// visits costs 2L flops once and a slice read afterwards.
func (t *ALT) Potentials(dest graph.VertexID) (PotentialFunc, func()) {
	m := t.memoPool.Get().(*altMemo)
	l := len(t.landmarks)
	for i := range l {
		m.destTo[i], m.destFr[i] = float64(t.toLm[int(dest)*l+i]), float64(t.fromLm[int(dest)*l+i])
	}
	for i := range m.h {
		m.h[i] = -1
	}
	m.h[dest] = 0
	return m.fn, m.rel
}

// potential computes max over landmarks of the two directed triangle
// bounds. IEEE semantics make the unreachable cases come out right with
// no explicit guards: an infinite minuend with a finite subtrahend
// yields +Inf (v provably cannot reach dest through any path — if v
// cannot reach ℓ but dest can, or ℓ reaches v but not dest, then v
// cannot reach dest), a finite minuend with an infinite subtrahend
// yields −Inf, and Inf−Inf yields NaN; the `>` comparison rejects both
// −Inf and NaN because it is false for them. The bound is taken in
// float64 over the float32 entries and less twice the tables' slack
// (see ALT), which leaves +Inf infinite and, at slack 0, every bit as
// it is.
func (m *altMemo) potential(v graph.VertexID) float64 {
	if h := m.h[v]; h >= 0 {
		return h
	}
	l := len(m.destTo)
	off := int(v) * l
	toRow := m.t.toLm[off : off+l]
	frRow := m.t.fromLm[off : off+l]
	h := 0.0
	for i := 0; i < l; i++ {
		if b := float64(toRow[i]) - m.destTo[i]; b > h {
			h = b
		}
		if b := m.destFr[i] - float64(frRow[i]); b > h {
			h = b
		}
	}
	h = max(h-2*m.t.slack, 0)
	m.h[v] = h
	return h
}

package graph

import (
	"testing"

	"stochroute/internal/geo"
	"stochroute/internal/rng"
)

func buildRandomGraph(t *testing.T, n int, seed uint64) *Graph {
	t.Helper()
	r := rng.New(seed)
	b := NewBuilder(n, 0)
	for i := 0; i < n; i++ {
		b.AddVertex(geo.Point{
			Lat: 57 + r.Range(0, 0.05),
			Lon: 9.9 + r.Range(0, 0.05),
		})
	}
	return b.Build()
}

func bruteNearest(g *Graph, p geo.Point) VertexID {
	best := NoVertex
	bestD := 1e18
	for v := 0; v < g.NumVertices(); v++ {
		if d := geo.ApproxDistance(p, g.Point(VertexID(v))); d < bestD {
			bestD = d
			best = VertexID(v)
		}
	}
	return best
}

func TestNearestMatchesBruteForce(t *testing.T) {
	g := buildRandomGraph(t, 500, 1)
	idx := NewGridIndex(g, 300)
	r := rng.New(2)
	for i := 0; i < 200; i++ {
		p := geo.Point{Lat: 57 + r.Range(-0.01, 0.06), Lon: 9.9 + r.Range(-0.01, 0.06)}
		got := idx.Nearest(p)
		want := bruteNearest(g, p)
		if got != want {
			// Allow exact ties by distance.
			dg := geo.ApproxDistance(p, g.Point(got))
			dw := geo.ApproxDistance(p, g.Point(want))
			if dg > dw+1e-6 {
				t.Errorf("Nearest(%v) = %d (%.2fm), brute = %d (%.2fm)", p, got, dg, want, dw)
			}
		}
	}
}

func TestNearestEmptyGraph(t *testing.T) {
	g := NewBuilder(0, 0).Build()
	idx := NewGridIndex(g, 500)
	if got := idx.Nearest(geo.Point{Lat: 57, Lon: 9.9}); got != NoVertex {
		t.Errorf("Nearest on empty graph = %v", got)
	}
}

func TestNearestSingleVertex(t *testing.T) {
	b := NewBuilder(1, 0)
	b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	g := b.Build()
	idx := NewGridIndex(g, 500)
	if got := idx.Nearest(geo.Point{Lat: 58, Lon: 11}); got != 0 {
		t.Errorf("Nearest = %v", got)
	}
}

package graph

import (
	"testing"

	"stochroute/internal/geo"
)

// buildDiamond returns the 4-vertex diamond used across tests:
//
//	0 -> 1 -> 3
//	0 -> 2 -> 3
func buildDiamond(t *testing.T) (*Graph, []EdgeID) {
	t.Helper()
	b := NewBuilder(4, 4)
	p := []geo.Point{{Lat: 57, Lon: 9.90}, {Lat: 57.001, Lon: 9.90}, {Lat: 56.999, Lon: 9.90}, {Lat: 57, Lon: 9.91}}
	for _, pt := range p {
		b.AddVertex(pt)
	}
	var ids []EdgeID
	for _, e := range []Edge{
		{From: 0, To: 1, Category: Residential},
		{From: 1, To: 3, Category: Residential},
		{From: 0, To: 2, Category: Secondary},
		{From: 2, To: 3, Category: Secondary},
	} {
		id, err := b.AddEdge(e)
		if err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
		ids = append(ids, id)
	}
	return b.Build(), ids
}

func TestBuilderAndCSR(t *testing.T) {
	g, ids := buildDiamond(t)
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("size = %d/%d", g.NumVertices(), g.NumEdges())
	}
	out0 := g.Out(0)
	if len(out0) != 2 {
		t.Fatalf("Out(0) = %v", out0)
	}
	seen := map[EdgeID]bool{}
	for _, e := range out0 {
		seen[e] = true
		if g.Edge(e).From != 0 {
			t.Errorf("edge %d in Out(0) has From %d", e, g.Edge(e).From)
		}
	}
	if !seen[ids[0]] || !seen[ids[2]] {
		t.Errorf("Out(0) missing expected edges: %v", out0)
	}
	in3 := g.In(3)
	if len(in3) != 2 {
		t.Fatalf("In(3) = %v", in3)
	}
	for _, e := range in3 {
		if g.Edge(e).To != 3 {
			t.Errorf("edge %d in In(3) has To %d", e, g.Edge(e).To)
		}
	}
	if g.OutDegree(3) != 0 || g.InDegree(0) != 0 {
		t.Error("degree bookkeeping wrong at endpoints")
	}
}

func TestAddEdgeValidation(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	b.AddVertex(geo.Point{Lat: 57.01, Lon: 9.9})
	if _, err := b.AddEdge(Edge{From: 0, To: 5}); err == nil {
		t.Error("out-of-range To should error")
	}
	if _, err := b.AddEdge(Edge{From: 7, To: 0}); err == nil {
		t.Error("out-of-range From should error")
	}
	if _, err := b.AddEdge(Edge{From: 0, To: 0}); err == nil {
		t.Error("self-loop should error")
	}
	// Auto length from haversine.
	id, err := b.AddEdge(Edge{From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	length := g.Edge(id).LengthMeters
	if length < 1000 || length > 1300 {
		t.Errorf("auto length = %v, want ~1112m for 0.01 degree", length)
	}
}

func TestAddBidirectional(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	b.AddVertex(geo.Point{Lat: 57.001, Lon: 9.9})
	fwd, rev, err := b.AddBidirectional(Edge{From: 0, To: 1, Category: Primary})
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.Edge(fwd).From != 0 || g.Edge(rev).From != 1 {
		t.Error("bidirectional endpoints wrong")
	}
	if g.Edge(fwd).LengthMeters != g.Edge(rev).LengthMeters {
		t.Error("bidirectional lengths differ")
	}
}

func TestFreeFlowSeconds(t *testing.T) {
	e := Edge{LengthMeters: 1000, SpeedKmh: 36}
	if got := e.FreeFlowSeconds(); got != 100 {
		t.Errorf("1km at 36km/h = %vs, want 100", got)
	}
	// Category default applies when speed is 0.
	e = Edge{LengthMeters: 1100, Category: Motorway}
	want := 1100 / (110 / 3.6)
	if got := e.FreeFlowSeconds(); got < want-0.01 || got > want+0.01 {
		t.Errorf("default speed freeflow = %v, want %v", got, want)
	}
}

func TestRoadCategoryStrings(t *testing.T) {
	for c := Motorway; c < numCategories; c++ {
		if c.String() == "" || c.DefaultSpeedKmh() <= 0 {
			t.Errorf("category %d has bad metadata", c)
		}
	}
	if RoadCategory(200).String() == "" {
		t.Error("unknown category should still stringify")
	}
}

func TestEdgePairs(t *testing.T) {
	g, ids := buildDiamond(t)
	pairs := g.EdgePairs(true)
	// Adjacencies: (0->1, 1->3) and (0->2, 2->3).
	if len(pairs) != 2 {
		t.Fatalf("pairs = %v", pairs)
	}
	for _, p := range pairs {
		if g.Edge(p.First).To != p.Via || g.Edge(p.Second).From != p.Via {
			t.Errorf("pair %v not adjacent at via", p)
		}
	}
	_ = ids
}

func TestEdgePairsUTurns(t *testing.T) {
	b := NewBuilder(2, 2)
	b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	b.AddVertex(geo.Point{Lat: 57.001, Lon: 9.9})
	if _, _, err := b.AddBidirectional(Edge{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	// With U-turns the only pairs are 0->1->0 and 1->0->1.
	withU := g.EdgePairs(false)
	if len(withU) != 2 {
		t.Errorf("withU = %v", withU)
	}
	noU := g.EdgePairs(true)
	if len(noU) != 0 {
		t.Errorf("noU = %v", noU)
	}
}

func TestLargestStronglyReachableFrom(t *testing.T) {
	// Two vertices strongly connected, a third only reachable forward.
	b := NewBuilder(3, 4)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	b.AddEdge(Edge{From: 0, To: 1}) //nolint:errcheck
	b.AddEdge(Edge{From: 1, To: 0}) //nolint:errcheck
	b.AddEdge(Edge{From: 1, To: 2}) //nolint:errcheck
	g := b.Build()
	mask := g.LargestStronglyReachableFrom(0)
	if !mask[0] || !mask[1] || mask[2] {
		t.Errorf("SCC mask = %v", mask)
	}
}

func TestBBoxAndLength(t *testing.T) {
	g, _ := buildDiamond(t)
	bb := g.BBox()
	if bb.Empty() {
		t.Fatal("bbox empty")
	}
	if !bb.Contains(g.Point(0)) {
		t.Error("bbox must contain vertices")
	}
	if g.TotalLengthMeters() <= 0 {
		t.Error("total length should be positive")
	}
}

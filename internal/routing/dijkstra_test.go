package routing

import (
	"math"
	"testing"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
)

// buildWeightedDiamond: 0→1→3 costs 1+1=2, 0→2→3 costs 5+5=10, plus a
// direct 0→3 of cost 7.
func buildWeightedDiamond(t *testing.T) (*graph.Graph, map[graph.EdgeID]float64) {
	t.Helper()
	b := graph.NewBuilder(4, 5)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	weights := map[graph.EdgeID]float64{}
	add := func(from, to graph.VertexID, w float64) {
		id, err := b.AddEdge(graph.Edge{From: from, To: to})
		if err != nil {
			t.Fatal(err)
		}
		weights[id] = w
	}
	add(0, 1, 1)
	add(1, 3, 1)
	add(0, 2, 5)
	add(2, 3, 5)
	add(0, 3, 7)
	return b.Build(), weights
}

func TestDijkstraShortestPath(t *testing.T) {
	g, w := buildWeightedDiamond(t)
	weight := func(e graph.EdgeID) float64 { return w[e] }
	path, cost, err := Dijkstra(g, weight, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 2 {
		t.Errorf("cost = %v, want 2", cost)
	}
	if len(path) != 2 {
		t.Fatalf("path = %v", path)
	}
	if err := ValidatePath(g, path, 0, 3); err != nil {
		t.Errorf("invalid path: %v", err)
	}
}

func TestDijkstraSameVertex(t *testing.T) {
	g, w := buildWeightedDiamond(t)
	path, cost, err := Dijkstra(g, func(e graph.EdgeID) float64 { return w[e] }, 2, 2)
	if err != nil || cost != 0 || len(path) != 0 {
		t.Errorf("s==d: path=%v cost=%v err=%v", path, cost, err)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	if _, err := b.AddEdge(graph.Edge{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	_, _, err := Dijkstra(g, func(graph.EdgeID) float64 { return 1 }, 0, 2)
	if err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestDijkstraNegativeWeightRejected(t *testing.T) {
	g, w := buildWeightedDiamond(t)
	_, _, err := Dijkstra(g, func(e graph.EdgeID) float64 { return w[e] - 3 }, 0, 3)
	if err == nil {
		t.Error("negative weight should error")
	}
}

func TestReversePotentialsAdmissibleAndExact(t *testing.T) {
	g, w := buildWeightedDiamond(t)
	weight := func(e graph.EdgeID) float64 { return w[e] }
	h := ReversePotentials(g, weight, 3)
	// h equals the true minimum cost to 3 under the same weights.
	want := map[graph.VertexID]float64{0: 2, 1: 1, 2: 5, 3: 0}
	for v, expect := range want {
		if math.Abs(h[v]-expect) > 1e-12 {
			t.Errorf("h[%d] = %v, want %v", v, h[v], expect)
		}
	}
}

func TestReversePotentialsUnreachableIsInf(t *testing.T) {
	b := graph.NewBuilder(2, 1)
	b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	b.AddVertex(geo.Point{Lat: 57.001, Lon: 9.9})
	if _, err := b.AddEdge(graph.Edge{From: 0, To: 1}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	h := ReversePotentials(g, func(graph.EdgeID) float64 { return 1 }, 0)
	if !math.IsInf(h[1], 1) {
		t.Errorf("h[1] = %v, want +Inf (cannot reach 0 from 1)", h[1])
	}
}

func TestValidatePath(t *testing.T) {
	g, w := buildWeightedDiamond(t)
	path, _, err := Dijkstra(g, func(e graph.EdgeID) float64 { return w[e] }, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidatePath(g, nil, 0, 0); err != nil {
		t.Errorf("empty path with s==d: %v", err)
	}
	if err := ValidatePath(g, nil, 0, 3); err == nil {
		t.Error("empty path with s!=d should error")
	}
	if err := ValidatePath(g, path, 1, 3); err == nil {
		t.Error("wrong source should error")
	}
	if err := ValidatePath(g, path, 0, 2); err == nil {
		t.Error("wrong dest should error")
	}
	// Discontinuous path.
	bad := []graph.EdgeID{path[0], path[0]}
	if err := ValidatePath(g, bad, 0, 3); err == nil {
		t.Error("discontinuous path should error")
	}
}

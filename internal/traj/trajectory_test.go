package traj

import (
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/rng"
)

func TestGenerateTrajectoriesBasic(t *testing.T) {
	w := testWorld(t, nil)
	cfg := WalkConfig{NumTrajectories: 200, MinEdges: 4, MaxEdges: 12, Seed: 5}
	trs, err := GenerateTrajectories(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 200 {
		t.Fatalf("got %d trajectories", len(trs))
	}
	g := w.Graph()
	for i := range trs {
		tr := &trs[i]
		if len(tr.Edges) < cfg.MinEdges || len(tr.Edges) > cfg.MaxEdges {
			t.Fatalf("trajectory %d has %d edges", i, len(tr.Edges))
		}
		if err := tr.Validate(g); err != nil {
			t.Fatalf("trajectory %d invalid: %v", i, err)
		}
		for j, tt := range tr.Times {
			if tt <= 0 {
				t.Fatalf("trajectory %d time[%d] = %v", i, j, tt)
			}
		}
	}
}

func TestGenerateTrajectoriesDeterministic(t *testing.T) {
	w := testWorld(t, nil)
	cfg := WalkConfig{NumTrajectories: 50, MinEdges: 4, MaxEdges: 10, Seed: 5}
	a, err := GenerateTrajectories(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateTrajectories(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if len(a[i].Edges) != len(b[i].Edges) {
			t.Fatalf("trajectory %d length differs", i)
		}
		for j := range a[i].Edges {
			if a[i].Edges[j] != b[i].Edges[j] || a[i].Times[j] != b[i].Times[j] {
				t.Fatalf("trajectory %d differs at hop %d", i, j)
			}
		}
	}
}

func TestGenerateTrajectoriesConfigErrors(t *testing.T) {
	w := testWorld(t, nil)
	if _, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 0, MinEdges: 1, MaxEdges: 2}); err == nil {
		t.Error("zero count should error")
	}
	if _, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 1, MinEdges: 0, MaxEdges: 2}); err == nil {
		t.Error("zero min should error")
	}
	if _, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 1, MinEdges: 5, MaxEdges: 2}); err == nil {
		t.Error("max < min should error")
	}
}

func TestTrajectoryTimesComeFromModeValues(t *testing.T) {
	// Noise-free: every observed time equals one of the edge's mode times.
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 100, MinEdges: 3, MaxEdges: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			found := false
			for m := 0; m < w.NumModes(); m++ {
				if tr.Times[j] == w.ModeTime(e, m) {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("trajectory %d hop %d time %v not a mode value of edge %d", i, j, tr.Times[j], e)
			}
		}
	}
}

func TestGenerateTrajectoriesWithRouteTrips(t *testing.T) {
	w := testWorld(t, nil)
	cfg := WalkConfig{
		NumTrajectories: 300,
		MinEdges:        4,
		MaxEdges:        10,
		Seed:            21,
		RouteFraction:   0.7,
		NumRoutes:       50,
		RouteJitter:     0.25,
	}
	trs, err := GenerateTrajectories(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 300 {
		t.Fatalf("got %d trajectories", len(trs))
	}
	g := w.Graph()
	longTrips := 0
	for i := range trs {
		if err := trs[i].Validate(g); err != nil {
			t.Fatalf("trajectory %d invalid: %v", i, err)
		}
		// Route trips may exceed MaxEdges (that cap is for walks).
		if len(trs[i].Edges) > cfg.MaxEdges {
			longTrips++
		}
	}
	if longTrips == 0 {
		t.Error("route trips should produce some trips longer than MaxEdges")
	}
}

func TestGenerateTrajectoriesRouteFractionValidation(t *testing.T) {
	w := testWorld(t, nil)
	_, err := GenerateTrajectories(w, WalkConfig{
		NumTrajectories: 1, MinEdges: 1, MaxEdges: 2, RouteFraction: 1.5,
	})
	if err == nil {
		t.Error("RouteFraction > 1 should error")
	}
}

func TestRoutePoolPathsAreShortestish(t *testing.T) {
	// Routes follow jittered free-flow weights, so their free-flow time
	// should be close to (and never hugely above) the unjittered optimum.
	w := testWorld(t, nil)
	g := w.Graph()
	cfg := WalkConfig{NumTrajectories: 1, MinEdges: 4, MaxEdges: 8, Seed: 9,
		RouteFraction: 1, NumRoutes: 30, RouteJitter: 0.2}
	r := rng.New(cfg.Seed)
	pool := buildRoutePool(w, r, cfg)
	if len(pool) == 0 {
		t.Fatal("empty route pool")
	}
	freeflow := func(route []graph.EdgeID) float64 {
		s := 0.0
		for _, e := range route {
			s += g.Edge(e).FreeFlowSeconds()
		}
		return s
	}
	weights := make([]float64, g.NumEdges())
	for e := range weights {
		weights[e] = g.Edge(graph.EdgeID(e)).FreeFlowSeconds()
	}
	for i, route := range pool[:10] {
		src := g.Edge(route[0]).From
		dst := g.Edge(route[len(route)-1]).To
		opt := shortestPath(g, weights, src, dst)
		if opt == nil {
			t.Fatalf("route %d endpoints unreachable", i)
		}
		if got, want := freeflow(route), freeflow(opt); got > want*1.6 {
			t.Errorf("route %d free-flow time %.1f too far above optimum %.1f", i, got, want)
		}
	}
}

func TestTrajectoryValidate(t *testing.T) {
	w := testWorld(t, nil)
	g := w.Graph()
	good := Trajectory{Edges: []graph.EdgeID{0}, Times: []float64{5}}
	if err := good.Validate(g); err != nil {
		t.Errorf("single-edge trajectory invalid: %v", err)
	}
	bad := Trajectory{Edges: []graph.EdgeID{0, 0}, Times: []float64{5}}
	if err := bad.Validate(g); err == nil {
		t.Error("length mismatch should error")
	}
}

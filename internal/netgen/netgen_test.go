package netgen

import (
	"testing"

	"stochroute/internal/graph"
)

func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Rows, cfg.Cols = 20, 20
	cfg.CellMeters = 100
	// On a 20-row grid the default primaryEvery=4 would place the only
	// primary line on the ring border; every 2nd arterial keeps one in
	// the interior.
	cfg.primaryEvery = 2
	return cfg
}

func TestGenerateBasicProperties(t *testing.T) {
	g, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() < 300 {
		t.Errorf("vertices = %d, expected most of 400 to survive", g.NumVertices())
	}
	if g.NumEdges() < g.NumVertices() {
		t.Errorf("edges = %d for %d vertices", g.NumEdges(), g.NumVertices())
	}
	// Every generated edge must have positive length and a speed.
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if ed.LengthMeters <= 0 {
			t.Fatalf("edge %d has length %v", e, ed.LengthMeters)
		}
		if ed.FreeFlowSeconds() <= 0 {
			t.Fatalf("edge %d has free-flow %v", e, ed.FreeFlowSeconds())
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same config produced different graphs")
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Point(graph.VertexID(v)) != b.Point(graph.VertexID(v)) {
			t.Fatalf("vertex %d differs", v)
		}
	}
}

func TestGenerateSeedChangesGraph(t *testing.T) {
	cfg := smallConfig()
	a, _ := Generate(cfg)
	cfg.Seed = 777
	b, _ := Generate(cfg)
	same := true
	for v := 0; v < a.NumVertices() && v < b.NumVertices(); v++ {
		if a.Point(graph.VertexID(v)) != b.Point(graph.VertexID(v)) {
			same = false
			break
		}
	}
	if same && a.NumVertices() == b.NumVertices() {
		t.Error("different seeds produced identical graphs")
	}
}

func TestGenerateStronglyConnected(t *testing.T) {
	g, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	mask := g.LargestStronglyReachableFrom(0)
	for v, in := range mask {
		if !in {
			t.Fatalf("vertex %d not strongly connected to vertex 0", v)
		}
	}
}

func TestGenerateCategoriesPresent(t *testing.T) {
	g, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := map[graph.RoadCategory]int{}
	for e := 0; e < g.NumEdges(); e++ {
		counts[g.Edge(graph.EdgeID(e)).Category]++
	}
	for _, want := range []graph.RoadCategory{graph.Residential, graph.Secondary, graph.Primary, graph.Motorway} {
		if counts[want] == 0 {
			t.Errorf("no %v edges generated: %v", want, counts)
		}
	}
	if counts[graph.Residential] < counts[graph.Secondary] {
		t.Errorf("residential (%d) should outnumber secondary (%d)",
			counts[graph.Residential], counts[graph.Secondary])
	}
}

func TestGenerateUsesConfiguredSpeeds(t *testing.T) {
	cfg := smallConfig()
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if want, ok := urbanSpeeds[ed.Category]; ok && ed.SpeedKmh != want {
			t.Fatalf("edge %d category %v has speed %v, want %v", e, ed.Category, ed.SpeedKmh, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Rows = 1 },
		func(c *Config) { c.Cols = 0 },
		func(c *Config) { c.CellMeters = 0 },
		func(c *Config) { c.DropFrac = 0.9 },
	}
	for i, mutate := range bad {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGenerateWithoutRingOrArterials(t *testing.T) {
	cfg := smallConfig()
	cfg.MotorwayRing = false
	cfg.ArterialEvery = 0
	g, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < g.NumEdges(); e++ {
		if cat := g.Edge(graph.EdgeID(e)).Category; cat != graph.Residential {
			t.Fatalf("edge %d has category %v, want all residential", e, cat)
		}
	}
}

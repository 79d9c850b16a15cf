package stochroute

import (
	"errors"
	"math"
	"testing"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/rng"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// TestQuantileBudget holds the program's one default-deadline rule to
// its definition: the q-quantile of the mean-cost route's 1024-bucket
// convolution, non-decreasing in q, with at least q of that
// distribution's mass at or below it; an unreachable pair is an error.
func TestQuantileBudget(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 2.0, 8, 46)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		path, _, err := e.MeanRoute(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		conv, err := hybrid.PathCost(&hybrid.ConvolutionCoster{KB: e.SliceKnowledgeBase(0), MaxBuckets: 1024}, path)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(-1)
		for _, p := range []float64{0.5, 0.6, 0.75, 0.8} {
			got, err := e.QuantileBudget(0, q.Source, q.Dest, p)
			if err != nil {
				t.Fatalf("%d→%d q%v: %v", q.Source, q.Dest, p, err)
			}
			if want := conv.Quantile(p); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%d→%d q%v: budget %v, mean route's convolution quantile %v", q.Source, q.Dest, p, got, want)
			}
			if got < prev {
				t.Errorf("%d→%d q%v: budget %v below the lower quantile's %v", q.Source, q.Dest, p, got, prev)
			}
			// Quantile accepts a running sum 1e-15 short of q.
			if c := conv.CDF(got); c < p-1e-12 {
				t.Errorf("%d→%d q%v: CDF at budget %v is %v", q.Source, q.Dest, p, got, c)
			}
			prev = got
		}
	}

	// One one-way edge: its head cannot reach its tail.
	b := graph.NewBuilder(2, 1)
	from := b.AddVertex(geo.Point{Lat: 57, Lon: 9.9})
	to := b.AddVertex(geo.Point{Lat: 57.001, Lon: 9.9})
	if _, err := b.AddEdge(graph.Edge{From: from, To: to, LengthMeters: 111, Category: graph.Residential}); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	const width = 5.0
	trs := []Trajectory{{Edges: []EdgeID{0}, Times: []float64{20}}, {Edges: []EdgeID{0}, Times: []float64{30}}}
	kb, err := hybrid.BuildKnowledgeBase(g, traj.CollectSlices(g, width, 1, trs)[0], width, 10)
	if err != nil {
		t.Fatal(err)
	}
	one, err := NewEngineWithModelSet(g, trs, width, 10, hybrid.SingleModelSet(&Model{KB: kb}))
	if err != nil {
		t.Fatal(err)
	}
	if budget, err := one.QuantileBudget(0, from, to, 0.8); err != nil || budget < 20 || budget > 35 {
		t.Errorf("reachable pair: budget %v, err %v; want within the observed 20–30 s", budget, err)
	}
	if budget, err := one.QuantileBudget(0, to, from, 0.8); !errors.Is(err, routing.ErrUnreachable) {
		t.Errorf("unreachable pair: budget %v, err %v; want routing.ErrUnreachable", budget, err)
	}
}

// TestQuantileBudgetReachesItsCap: on a corridor whose mean-cost
// route's convolution spreads more than 512 buckets above its minimum
// and still fits in 1024, QuantileBudget is the q-quantile of the
// uncapped hist.Convolve chain over the route's marginals. The test
// engine's routes are narrower than 512 buckets, so only this corridor
// tells the 1024-bucket cap from a smaller one.
func TestQuantileBudgetReachesItsCap(t *testing.T) {
	const (
		edges = 20
		width = 2.0
	)
	b := graph.NewBuilder(edges+1, edges)
	for v := 0; v <= edges; v++ {
		b.AddVertex(geo.Point{Lat: 57 + 0.001*float64(v), Lon: 9.9})
	}
	corridor := make([]EdgeID, edges)
	for i := range corridor {
		id, err := b.AddEdge(graph.Edge{From: VertexID(i), To: VertexID(i + 1), LengthMeters: 111, Category: graph.Residential})
		if err != nil {
			t.Fatal(err)
		}
		corridor[i] = id
	}
	g := b.Build()
	// Each trip takes every edge in 10 s, or in 70 s four times in five:
	// 30 buckets of spread per edge, 600 over the route.
	r := rng.New(47)
	trs := make([]Trajectory, 400)
	for i := range trs {
		times := make([]float64, edges)
		for j := range times {
			times[j] = 10
			if r.Float64() < 0.8 {
				times[j] = 70
			}
		}
		trs[i] = Trajectory{Edges: corridor, Times: times}
	}
	kb, err := hybrid.BuildKnowledgeBase(g, traj.CollectSlices(g, width, 1, trs)[0], width, 10)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineWithModelSet(g, trs, width, 10, hybrid.SingleModelSet(&Model{KB: kb}))
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := e.MeanRoute(0, edges)
	if err != nil {
		t.Fatal(err)
	}
	chain := kb.Edge(path[0]).Marginal
	for _, id := range path[1:] {
		if chain, err = hist.Convolve(chain, kb.Edge(id).Marginal); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(chain.P); n <= 512 || n > 1024 {
		t.Fatalf("the corridor's convolution spans %d buckets, want (512, 1024]", n)
	}
	if above := (chain.Quantile(0.8) - chain.Min) / width; above <= 512 {
		t.Fatalf("the q0.8 quantile is %v buckets above the minimum, want more than 512", above)
	}
	for _, q := range []float64{0.5, 0.8, 0.95} {
		want := chain.Quantile(q)
		got, err := e.QuantileBudget(0, 0, edges, q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("q%v: budget %v, the uncapped convolution's quantile %v", q, got, want)
		}
	}
}

package routing

import (
	"math"
	"testing"
	"time"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// fixedCoster serves explicit per-edge histograms and extends by
// convolution — a fully controlled stand-in for the hybrid model.
type fixedCoster struct {
	hists map[graph.EdgeID]*hist.Hist
	width float64
}

func (c *fixedCoster) InitialHistInto(s *hybrid.Scratch, e graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(c.hists[e])
}
func (c *fixedCoster) ExtendInto(s *hybrid.Scratch, v *hist.Hist, _, next graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(hist.MustConvolve(v, c.hists[next]))
}
func (c *fixedCoster) MinEdgeTime(e graph.EdgeID) float64 { return c.hists[e].Min }
func (c *fixedCoster) Width() float64                     { return c.width }

// riskyVsSafe builds the canonical budget-routing scenario:
//
//	0 →(A)→ 1 →(B)→ 3   "risky":  {20: .6, 110: .4}, mean 56
//	0 →(C)→ 2 →(D)→ 3   "safe":   {60: 1},           mean 60
//
// Mean-cost routing prefers risky; with budget 70 the safe route has
// P = 1 vs risky's 0.6.
func riskyVsSafe(t *testing.T) (*graph.Graph, *fixedCoster, []graph.EdgeID, []graph.EdgeID) {
	t.Helper()
	b := graph.NewBuilder(4, 4)
	for i := 0; i < 4; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	mustAdd := func(from, to graph.VertexID) graph.EdgeID {
		id, err := b.AddEdge(graph.Edge{From: from, To: to})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	eA := mustAdd(0, 1)
	eB := mustAdd(1, 3)
	eC := mustAdd(0, 2)
	eD := mustAdd(2, 3)
	g := b.Build()

	mk := func(pairs map[float64]float64) *hist.Hist {
		h, err := hist.FromPairs(pairs, 10)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	c := &fixedCoster{
		width: 10,
		hists: map[graph.EdgeID]*hist.Hist{
			eA: mk(map[float64]float64{10: 0.6, 100: 0.4}),
			eB: mk(map[float64]float64{10: 1}),
			eC: mk(map[float64]float64{40: 1}),
			eD: mk(map[float64]float64{20: 1}),
		},
	}
	return g, c, []graph.EdgeID{eA, eB}, []graph.EdgeID{eC, eD}
}

func TestPBRPrefersReliablePathUnderDeadline(t *testing.T) {
	g, c, risky, safe := riskyVsSafe(t)
	res, err := PBR(g, c, 0, 3, Options{Budget: 70})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Complete {
		t.Fatalf("result: %+v", res)
	}
	if math.Abs(res.Prob-1) > 1e-12 {
		t.Errorf("Prob = %v, want 1", res.Prob)
	}
	if len(res.Path) != 2 || res.Path[0] != safe[0] || res.Path[1] != safe[1] {
		t.Errorf("path = %v, want safe %v", res.Path, safe)
	}
	if err := ValidatePath(g, res.Path, 0, 3); err != nil {
		t.Errorf("returned path invalid: %v", err)
	}
	_ = risky
}

func TestPBRPrefersRiskyPathWithTightBudget(t *testing.T) {
	// Budget 30: only the risky route's fast mode can make it.
	g, c, risky, _ := riskyVsSafe(t)
	res, err := PBR(g, c, 0, 3, Options{Budget: 30})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("no path found")
	}
	if math.Abs(res.Prob-0.6) > 1e-12 {
		t.Errorf("Prob = %v, want 0.6", res.Prob)
	}
	if res.Path[0] != risky[0] {
		t.Errorf("path = %v, want risky", res.Path)
	}
}

func TestPBRMeanRoutingDisagrees(t *testing.T) {
	// Confirms the scenario actually embodies the paper's pitfall.
	g, c, risky, _ := riskyVsSafe(t)
	meanW := func(e graph.EdgeID) float64 { return c.hists[e].Mean() }
	path, _, err := Dijkstra(g, meanW, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if path[0] != risky[0] {
		t.Errorf("mean routing picked %v, expected risky %v", path, risky)
	}
}

func TestPBRZeroProbabilityBudgetStillReturnsPath(t *testing.T) {
	g, c, _, _ := riskyVsSafe(t)
	res, err := PBR(g, c, 0, 3, Options{Budget: 15})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("should return a best-effort pivot path")
	}
	if res.Prob != 0 {
		t.Errorf("Prob = %v, want 0", res.Prob)
	}
}

func TestPBRSourceEqualsDest(t *testing.T) {
	g, c, _, _ := riskyVsSafe(t)
	res, err := PBR(g, c, 2, 2, Options{Budget: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found || !res.Complete || res.Prob != 1 || len(res.Path) != 0 {
		t.Errorf("s==d result: %+v", res)
	}
}

func TestPBRInputValidation(t *testing.T) {
	g, c, _, _ := riskyVsSafe(t)
	if _, err := PBR(g, c, 0, 3, Options{Budget: 0}); err == nil {
		t.Error("zero budget should error")
	}
	if _, err := PBR(g, c, 0, 3, Options{Budget: math.NaN()}); err == nil {
		t.Error("NaN budget should error")
	}
	if _, err := PBR(g, c, -1, 3, Options{Budget: 10}); err == nil {
		t.Error("negative source should error")
	}
	if _, err := PBR(g, c, 0, 99, Options{Budget: 10}); err == nil {
		t.Error("out-of-range dest should error")
	}
}

func TestPBRUnreachable(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	for i := 0; i < 3; i++ {
		b.AddVertex(geo.Point{Lat: 57 + float64(i)*0.001, Lon: 9.9})
	}
	id, err := b.AddEdge(graph.Edge{From: 0, To: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	c := &fixedCoster{width: 10, hists: map[graph.EdgeID]*hist.Hist{id: hist.Delta(10, 10)}}
	if _, err := PBR(g, c, 0, 2, Options{Budget: 100}); err != ErrUnreachable {
		t.Errorf("err = %v, want ErrUnreachable", err)
	}
}

func TestPBRAnytimeExpansionLimit(t *testing.T) {
	g, c, _, _ := riskyVsSafe(t)
	res, err := PBR(g, c, 0, 3, Options{Budget: 70, MaxExpansions: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("1-expansion search should not be complete")
	}
	if res.Expansions > 1 {
		t.Errorf("Expansions = %d, want <= 1", res.Expansions)
	}
	// With enough expansions the anytime search completes optimally.
	res, err = PBR(g, c, 0, 3, Options{Budget: 70, MaxExpansions: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete || res.Prob != 1 {
		t.Errorf("large-limit result: %+v", res)
	}
}

func TestPBRAnytimeWallClock(t *testing.T) {
	g, c, _, _ := riskyVsSafe(t)
	res, err := PBR(g, c, 0, 3, Options{Budget: 70, MaxDuration: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Error("a tiny search must finish within a minute")
	}
}

// testSubstrate builds a small generated network with a convolution
// coster over empirical marginals.
func testSubstrate(t *testing.T) (*graph.Graph, *hybrid.KnowledgeBase) {
	t.Helper()
	netCfg := netgen.DefaultConfig()
	netCfg.Rows, netCfg.Cols = 10, 10
	netCfg.CellMeters = 150
	g, err := netgen.Generate(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	worldCfg := traj.DefaultWorldConfig()
	worldCfg.NoiseProb = 0
	world, err := traj.NewWorld(g, worldCfg)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 1500, MinEdges: 4, MaxEdges: 12, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := traj.NewObservationStore(g, worldCfg.BucketWidth)
	obs.Collect(trajs)
	kb, err := hybrid.BuildKnowledgeBase(g, obs, worldCfg.BucketWidth, 10)
	if err != nil {
		t.Fatal(err)
	}
	return g, kb
}

func TestPBRPruningsPreserveOptimality(t *testing.T) {
	// With the convolution coster every pruning is exact, so disabling
	// them must not change the optimal probability.
	g, kb := testSubstrate(t)
	coster := &hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 512}
	wg := netgen.NewWorkloadGen(g, 5)
	queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		_, optimistic, err := Dijkstra(g, kb.MinEdgeTime, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.3 * optimistic
		full, err := PBR(g, coster, q.Source, q.Dest, Options{Budget: budget, maxFrontier: 128})
		if err != nil {
			t.Fatal(err)
		}
		bare, err := PBR(g, coster, q.Source, q.Dest, Options{
			Budget:                  budget,
			maxFrontier:             128,
			DisablePotentialPruning: true,
			DisablePivotPruning:     true,
			DisableDominancePruning: true,
			MaxLabels:               5_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !full.Found || !bare.Found {
			t.Fatalf("query %d: found %v/%v", qi, full.Found, bare.Found)
		}
		if math.Abs(full.Prob-bare.Prob) > 1e-9 {
			t.Errorf("query %d: pruned prob %v != exhaustive prob %v", qi, full.Prob, bare.Prob)
		}
		if full.Expansions > bare.Expansions {
			t.Errorf("query %d: prunings increased expansions (%d > %d)", qi, full.Expansions, bare.Expansions)
		}
	}
}

func TestPBRBeatsOrMatchesMeanPathOnModelProb(t *testing.T) {
	// PBR maximises the model's budget probability, so it can never be
	// worse than the mean-cost path scored by the same model.
	g, kb := testSubstrate(t)
	coster := &hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 512}
	wg := netgen.NewWorkloadGen(g, 6)
	queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		_, optimistic, err := Dijkstra(g, kb.MinEdgeTime, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.3 * optimistic
		res, err := PBR(g, coster, q.Source, q.Dest, Options{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		meanPath, _, err := MeanCostPath(g, kb, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		meanDist, err := hybrid.PathCost(coster, meanPath)
		if err != nil {
			t.Fatal(err)
		}
		meanProb := meanDist.ProbWithinBudget(budget)
		if res.Prob < meanProb-1e-9 {
			t.Errorf("query %d: PBR prob %v below mean-path prob %v", qi, res.Prob, meanProb)
		}
	}
}

// TestFrontierVerdictMatchesCompareCDF: on random pairs — unrelated,
// shifted copies, equal copies — frontierVerdict reaches the decision
// one CompareCDF pass per pair reaches, whether or not the new label is
// already dominated: dominated is kept, or set when the entry's CDF is
// at least the label's, and the entry dies exactly when the label's CDF
// is at least the entry's and not the converse.
func TestFrontierVerdictMatchesCompareCDF(t *testing.T) {
	r := rng.New(7)
	random := func() *hist.Hist {
		p := make([]float64, 1+r.Intn(12))
		for i := range p {
			p[i] = r.Float64()
		}
		return hist.New(float64(r.Intn(20))*2, 2, p).Normalize()
	}
	for i := range 6000 {
		other := random()
		var nd *hist.Hist
		switch i % 3 {
		case 0:
			nd = random()
		case 1:
			nd = other.Shift(float64(r.Intn(5)-2) * 2)
		default:
			nd = other.Clone()
		}
		otherGE, ndGE := hist.CompareCDF(other, nd)
		for _, dominated := range []bool{false, true} {
			gotDominated, gotKill := frontierVerdict(other, nd, dominated)
			if gotDominated != (dominated || otherGE) || gotKill != (ndGE && !otherGE) {
				t.Fatalf("pair %d, dominated %v: frontierVerdict = (%v, %v), CompareCDF says (%v, %v)",
					i, dominated, gotDominated, gotKill, dominated || otherGE, ndGE && !otherGE)
			}
		}
	}
}

package traj

import (
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.Rows, cfg.Cols = 12, 12
	cfg.CellMeters = 150
	g, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testWorld(t *testing.T, mutate func(*WorldConfig)) *World {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.NoiseProb = 0
	if mutate != nil {
		mutate(&cfg)
	}
	w, err := NewWorld(testGraph(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestWorldConfigValidation(t *testing.T) {
	g := testGraph(t)
	bad := []func(*WorldConfig){
		func(c *WorldConfig) { c.ModeFactors = nil },
		func(c *WorldConfig) { c.ModePrior = []float64{0.5, 0.5} },
		func(c *WorldConfig) { c.ModePrior = []float64{0.5, 0.4, 0.2} },
		func(c *WorldConfig) { c.ModeFactors = []float64{0.1, 1, 1} },
		func(c *WorldConfig) { c.Stickiness = 1.5 },
		func(c *WorldConfig) { c.DependentVertexProb = -0.1 },
		func(c *WorldConfig) { c.NoiseProb = 0.95 },
		func(c *WorldConfig) { c.BucketWidth = 0 },
		func(c *WorldConfig) { c.CategoryFactors = map[graph.RoadCategory][]float64{graph.Motorway: {1}} },
		func(c *WorldConfig) {
			c.CategoryFactors = map[graph.RoadCategory][]float64{graph.Motorway: {0.1, 1, 1}}
		},
	}
	for i, mutate := range bad {
		cfg := DefaultWorldConfig()
		mutate(&cfg)
		if _, err := NewWorld(g, cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestModeTimesOnGridAndSeparated(t *testing.T) {
	w := testWorld(t, nil)
	width := w.cfg.BucketWidth
	for e := 0; e < w.Graph().NumEdges(); e++ {
		for m := 0; m < w.NumModes(); m++ {
			tm := w.ModeTime(graph.EdgeID(e), m)
			if tm <= 0 {
				t.Fatalf("edge %d mode %d time %v", e, m, tm)
			}
			if r := math.Mod(tm, width); r > 1e-9 && r < width-1e-9 {
				t.Fatalf("edge %d mode %d time %v off the %v grid", e, m, tm, width)
			}
			if m > 0 {
				prev := w.ModeTime(graph.EdgeID(e), m-1)
				if tm < prev+2*width-1e-9 {
					t.Fatalf("edge %d modes %d,%d not separated: %v vs %v", e, m-1, m, prev, tm)
				}
			}
		}
	}
}

func TestEdgeMarginalIsNormalizedWithPriorMasses(t *testing.T) {
	w := testWorld(t, nil)
	for e := 0; e < 50; e++ {
		marg := w.EdgeMarginal(graph.EdgeID(e))
		if err := marg.Validate(); err != nil {
			t.Fatalf("edge %d marginal invalid: %v", e, err)
		}
		// Without noise the marginal is exactly the prior over mode times.
		for m := 0; m < w.NumModes(); m++ {
			tm := w.ModeTime(graph.EdgeID(e), m)
			idx := int(math.Round((tm - marg.Min) / marg.Width))
			if math.Abs(marg.P[idx]-w.cfg.ModePrior[m]) > 1e-12 {
				t.Fatalf("edge %d mode %d mass %v, want %v", e, m, marg.P[idx], w.cfg.ModePrior[m])
			}
		}
	}
}

func TestEdgeMarginalWithNoise(t *testing.T) {
	w := testWorld(t, func(c *WorldConfig) { c.NoiseProb = 0.3 })
	marg := w.EdgeMarginal(0)
	if err := marg.Validate(); err != nil {
		t.Fatalf("noisy marginal invalid: %v", err)
	}
	// Noise spreads mass: more support points than modes.
	if len(marg.P) <= w.NumModes() {
		t.Errorf("noisy marginal support %d too small", len(marg.P))
	}
}

func TestMinEdgeTime(t *testing.T) {
	// Downward noise lowers the optimistic per-edge bound: the analytic
	// marginal's support starts earlier.
	w := testWorld(t, nil)
	wn := testWorld(t, func(c *WorldConfig) { c.NoiseProb = 0.2 })
	if wn.EdgeMarginal(0).Min >= w.EdgeMarginal(0).Min {
		t.Error("noise should lower the minimum")
	}
}

func TestPairModeJointStickiness(t *testing.T) {
	w := testWorld(t, nil)
	// Find one dependent and one independent vertex with traffic.
	var depV, indV graph.VertexID = graph.NoVertex, graph.NoVertex
	for v := graph.VertexID(0); int(v) < w.Graph().NumVertices(); v++ {
		if w.IsDependentVertex(v) && depV == graph.NoVertex {
			depV = v
		}
		if !w.IsDependentVertex(v) && indV == graph.NoVertex {
			indV = v
		}
	}
	if depV == graph.NoVertex || indV == graph.NoVertex {
		t.Skip("world lacks one of the vertex kinds")
	}
	pi := w.cfg.ModePrior

	jDep := w.PairModeJoint(depV)
	jInd := w.PairModeJoint(indV)
	total := 0.0
	for m1 := range jDep {
		for m2 := range jDep[m1] {
			total += jDep[m1][m2]
			// Independent vertex joint factorises.
			if math.Abs(jInd[m1][m2]-pi[m1]*pi[m2]) > 1e-12 {
				t.Fatalf("independent joint[%d][%d] = %v, want %v", m1, m2, jInd[m1][m2], pi[m1]*pi[m2])
			}
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("dependent joint total %v", total)
	}
	// Dependent vertex concentrates the diagonal.
	if jDep[0][0] <= pi[0]*pi[0] {
		t.Errorf("dependent joint diagonal %v not boosted over %v", jDep[0][0], pi[0]*pi[0])
	}
	// Marginals stay stationary: row sums = prior, column sums = prior.
	for m1 := range jDep {
		row := 0.0
		for m2 := range jDep[m1] {
			row += jDep[m1][m2]
		}
		if math.Abs(row-pi[m1]) > 1e-9 {
			t.Errorf("row %d marginal %v, want %v", m1, row, pi[m1])
		}
	}
	for m2 := range pi {
		col := 0.0
		for m1 := range jDep {
			col += jDep[m1][m2]
		}
		if math.Abs(col-pi[m2]) > 1e-9 {
			t.Errorf("col %d marginal %v, want %v", m2, col, pi[m2])
		}
	}
}

func TestPairJointSumMatchesMarginalsWhenIndependent(t *testing.T) {
	w := testWorld(t, nil)
	g := w.Graph()
	for _, pair := range g.EdgePairs(true)[:200] {
		if w.IsDependentVertex(pair.Via) {
			continue
		}
		joint := w.PairJointSum(pair.First, pair.Second, pair.Via)
		conv := hist.MustConvolve(w.EdgeMarginal(pair.First), w.EdgeMarginal(pair.Second))
		d, err := hist.TotalVariation(joint, conv)
		if err != nil {
			t.Fatal(err)
		}
		if d > 1e-9 {
			t.Fatalf("independent pair joint differs from convolution by TV %v", d)
		}
	}
}

func TestPairJointSumDependentDiffersFromConvolution(t *testing.T) {
	w := testWorld(t, nil)
	g := w.Graph()
	found := false
	for _, pair := range g.EdgePairs(true) {
		if !w.IsDependentVertex(pair.Via) {
			continue
		}
		joint := w.PairJointSum(pair.First, pair.Second, pair.Via)
		if err := joint.Validate(); err != nil {
			t.Fatalf("dependent joint invalid: %v", err)
		}
		conv := hist.MustConvolve(w.EdgeMarginal(pair.First), w.EdgeMarginal(pair.Second))
		d, _ := hist.TotalVariation(joint, conv)
		if d > 0.05 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no dependent pair deviates from convolution")
	}
}

func TestPathTruthMatchesConvolutionOnIndependentPath(t *testing.T) {
	// Force everything independent: PathTruth must equal iterated
	// convolution of marginals.
	w := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 0 })
	g := w.Graph()
	path := findPath(t, g, 5)
	truth, err := w.PathTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	conv := w.EdgeMarginal(path[0])
	for _, e := range path[1:] {
		conv = hist.MustConvolve(conv, w.EdgeMarginal(e))
	}
	conv.Trim()
	d, err := hist.TotalVariation(truth, conv)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-6 {
		t.Errorf("independent-path truth differs from convolution by TV %v", d)
	}
}

func TestPathTruthDependentHasHigherVariance(t *testing.T) {
	// Fully dependent world: positive correlation along the path raises
	// the variance of the sum above the independent case.
	wDep := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 1; c.Stickiness = 0.95 })
	wInd := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 0 })
	g := wDep.Graph()
	path := findPath(t, g, 8)
	dep, err := wDep.PathTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := wInd.PathTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	if dep.Variance() <= ind.Variance() {
		t.Errorf("dependent path variance %v <= independent %v", dep.Variance(), ind.Variance())
	}
	// Means agree (stationary marginals).
	if math.Abs(dep.Mean()-ind.Mean()) > 1e-6 {
		t.Errorf("means differ: %v vs %v", dep.Mean(), ind.Mean())
	}
}

func TestPathTruthErrors(t *testing.T) {
	w := testWorld(t, nil)
	if _, err := w.PathTruth(nil); err == nil {
		t.Error("empty path should error")
	}
	g := w.Graph()
	// Two non-adjacent edges.
	e1 := graph.EdgeID(0)
	var e2 graph.EdgeID = graph.NoEdge
	for e := 1; e < g.NumEdges(); e++ {
		if g.Edge(graph.EdgeID(e)).From != g.Edge(e1).To {
			e2 = graph.EdgeID(e)
			break
		}
	}
	if _, err := w.PathTruth([]graph.EdgeID{e1, e2}); err == nil {
		t.Error("discontinuous path should error")
	}
}

func TestDependentPairFraction(t *testing.T) {
	w := testWorld(t, nil)
	frac := w.DependentPairFraction()
	if frac < 0.55 || frac > 0.95 {
		t.Errorf("dependent fraction %v far from target 0.75", frac)
	}
	w0 := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 0 })
	if w0.DependentPairFraction() != 0 {
		t.Error("zero dependence prob should yield zero dependent pairs")
	}
}

// findPath returns a forward path of n edges starting from edge 0.
func findPath(t *testing.T, g *graph.Graph, n int) []graph.EdgeID {
	t.Helper()
	r := rng.New(1)
	for attempt := 0; attempt < 100; attempt++ {
		start := graph.EdgeID(r.Intn(g.NumEdges()))
		path := []graph.EdgeID{start}
		prevFrom := g.Edge(start).From
		cur := g.Edge(start).To
		for len(path) < n {
			var candidates []graph.EdgeID
			for _, e := range g.Out(cur) {
				if g.Edge(e).To != prevFrom {
					candidates = append(candidates, e)
				}
			}
			if len(candidates) == 0 {
				break
			}
			e := candidates[r.Intn(len(candidates))]
			path = append(path, e)
			prevFrom = cur
			cur = g.Edge(e).To
		}
		if len(path) == n {
			return path
		}
	}
	t.Fatal("could not build a test path")
	return nil
}

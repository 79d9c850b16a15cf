package hybrid

import (
	"fmt"
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/israce"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// referenceScaledHist is the projection priorTable.project replaced: one
// accumulator per grid index in a map, a fresh histogram per call. The
// table must return its bits.
func referenceScaledHist(p *ratioProfile, freeFlow, width float64) *hist.Hist {
	if freeFlow <= 0 {
		freeFlow = width
	}
	masses := make(map[int]float64)
	lo, hi := math.MaxInt32, math.MinInt32
	for i, m := range p.mass {
		if m == 0 {
			continue
		}
		ratio := ratioGridMin + float64(i)*ratioGridStep
		t := math.Max(width, math.Round(ratio*freeFlow/width)*width)
		idx := int(math.Round(t / width))
		masses[idx] += m
		if idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
	}
	if len(masses) == 0 {
		return hist.Delta(math.Max(width, freeFlow), width)
	}
	out := make([]float64, hi-lo+1)
	for idx, m := range masses {
		out[idx-lo] = m
	}
	return hist.New(float64(lo)*width, width, out).Normalize()
}

// referenceEdgeStats is pass 2 of BuildKnowledgeBase as it was before
// priors were interned: every edge projects its own prior.
func referenceEdgeStats(t *testing.T, g *graph.Graph, obs *traj.ObservationStore, width float64) []EdgeStats {
	t.Helper()
	profileFor, _ := ratioProfiles(g, obs)
	out := make([]EdgeStats, g.NumEdges())
	for e := range out {
		ed := g.Edge(graph.EdgeID(e))
		marginal := referenceScaledHist(profileFor(ed.Category), ed.FreeFlowSeconds(), width)
		samples := obs.Edge[graph.EdgeID(e)]
		if n := float64(len(samples)); n > 0 {
			empirical, err := hist.FromSamples(samples, width)
			if err != nil {
				t.Fatal(err)
			}
			marginal, err = hist.Mixture(
				[]*hist.Hist{empirical, marginal},
				[]float64{n / (n + ShrinkageK), ShrinkageK / (n + ShrinkageK)},
			)
			if err != nil {
				t.Fatal(err)
			}
			marginal = marginal.Trim()
		}
		out[e] = EdgeStats{Marginal: marginal, MinTime: marginal.Min, Mean: marginal.Mean(), Std: marginal.Std(), Count: len(samples)}
	}
	return out
}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

func TestPriorTableMatchesReference(t *testing.T) {
	r := rng.New(2201)
	profiles := map[string]*ratioProfile{"empty": newRatioProfile()}
	one := newRatioProfile()
	one.add(1.25, 3)
	profiles["one bucket"] = one
	tail := newRatioProfile()
	tail.add(ratioGridMax+4, 0.7)
	tail.add(ratioGridMax+0.01, 0.3)
	profiles["clamped tail"] = tail
	ends := newRatioProfile()
	ends.add(0, 1)
	ends.add(100, 2)
	profiles["both clamps"] = ends
	for k := 0; k < 6; k++ {
		p := newRatioProfile()
		// Sparse to full occupancy, weights spanning several decades so
		// the order of addition shows in the low bits.
		for i, n := 0, 1+r.Intn(4*len(p.mass)); i < n; i++ {
			p.add(ratioGridMin+r.Float64()*(ratioGridMax-ratioGridMin), math.Exp(8*r.Float64()-4))
		}
		profiles[fmt.Sprintf("random %d", k)] = p
	}

	for _, width := range []float64{1, 2, 2.5} {
		ffs := []float64{0, -3, 0.04 * width, 0.3 * width, width, 7 * width, 40 * width, 1234.5678}
		for i := 0; i < 8; i++ {
			// A free-flow time that puts some ratio bucket's projection
			// on a rounding boundary, and its neighbours 1e-9 away.
			ratio := ratioGridMin + float64(r.Intn(100))*ratioGridStep
			edge := (float64(1+r.Intn(60)) + 0.5) * width / ratio
			ffs = append(ffs, edge, edge-1e-9, edge+1e-9)
		}
		for i := 0; i < 20; i++ {
			ffs = append(ffs, 200*r.Float64())
		}
		// One table across every profile, as in a build: content that
		// collides must be content that is equal.
		table := newPriorTable(width)
		for name, p := range profiles {
			for _, ff := range ffs {
				want := referenceScaledHist(p, ff, width)
				got := table.project(p, ff)
				label := fmt.Sprintf("%s, width %v, free-flow %v", name, width, ff)
				distsBitEqual(t, label, got.Marginal, want)
				if bitsDiffer(got.MinTime, want.Min) || bitsDiffer(got.Mean, want.Mean()) || bitsDiffer(got.Std, want.Std()) || got.Count != 0 {
					t.Errorf("%s: stats (%v, %v, %v, %d), want (%v, %v, %v, 0)", label, got.MinTime, got.Mean, got.Std, got.Count, want.Min, want.Mean(), want.Std())
				}
				// An empty profile is a Delta at the free-flow time, which
				// nothing can share.
				if again := table.project(p, ff); again.Marginal != got.Marginal && name != "empty" {
					t.Errorf("%s: a second projection returned a different histogram", label)
				}
			}
		}
		if len(table.byKey) >= len(profiles)*len(ffs) {
			t.Errorf("width %v: %d entries for %d projections; nothing was shared", width, len(table.byKey), len(profiles)*len(ffs))
		}
	}
}

// goldenSubstrate rebuilds the graph and sliced observations under the
// PBR goldens (internal/routing/golden_test.go), whose float bits pin
// the knowledge base from the far side.
func goldenSubstrate(t testing.TB) (*graph.Graph, *traj.SlicedObservations, float64) {
	t.Helper()
	const slices = 4
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 14, 14
	ncfg.CellMeters = 130
	ncfg.Seed = 77
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 78
	var err error
	if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, slices, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	return observedSubstrate(t, ncfg, wcfg, traj.WalkConfig{
		NumTrajectories: 8000, MinEdges: 4, MaxEdges: 20, Seed: 79,
		RouteFraction: 0.7, NumRoutes: 150, RouteJitter: 0.25,
		Slices: slices,
	})
}

// sparseSubstrate is a network nobody has driven most of: more than
// nine edges in ten have no observation, so their marginals are priors.
func sparseSubstrate(t testing.TB) (*graph.Graph, *traj.ObservationStore, float64) {
	t.Helper()
	ncfg, wcfg := sparseConfigs()
	g, sobs, width := observedSubstrate(t, ncfg, wcfg, traj.WalkConfig{
		NumTrajectories: 300, MinEdges: 4, MaxEdges: 14, Seed: 33, Slices: 1,
	})
	return g, sobs.Slice(0), width
}

func sparseConfigs() (netgen.Config, traj.WorldConfig) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 110, 110
	ncfg.Seed = 31
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 32
	return ncfg, wcfg
}

func observedSubstrate(t testing.TB, ncfg netgen.Config, wcfg traj.WorldConfig, walk traj.WalkConfig) (*graph.Graph, *traj.SlicedObservations, float64) {
	t.Helper()
	g, trajs := walkedSubstrate(t, ncfg, wcfg, walk)
	sobs := traj.NewSlicedObservations(g, wcfg.BucketWidth, walk.Slices)
	sobs.Collect(trajs)
	return g, sobs, wcfg.BucketWidth
}

// walkedSubstrate is the part of observedSubstrate before the stores: a
// generated network and the trajectories simulated over it.
func walkedSubstrate(t testing.TB, ncfg netgen.Config, wcfg traj.WorldConfig, walk traj.WalkConfig) (*graph.Graph, []traj.Trajectory) {
	t.Helper()
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := traj.GenerateTrajectories(world, walk)
	if err != nil {
		t.Fatal(err)
	}
	return g, trajs
}

// checkAgainstReference builds the knowledge base and compares every
// edge with the per-edge reference, then returns it with the number of
// unobserved edges and of pointer-distinct marginals among them.
func checkAgainstReference(t *testing.T, label string, g *graph.Graph, obs *traj.ObservationStore, width float64) (kb *KnowledgeBase, unobserved, distinctPriors int) {
	t.Helper()
	kb, err := BuildKnowledgeBase(g, obs, width, 10)
	if err != nil {
		t.Fatal(err)
	}
	priors := make(map[*hist.Hist]bool)
	for e, want := range referenceEdgeStats(t, g, obs, width) {
		got := kb.Edge(graph.EdgeID(e))
		distsBitEqual(t, fmt.Sprintf("%s edge %d", label, e), got.Marginal, want.Marginal)
		if bitsDiffer(got.MinTime, want.MinTime) || bitsDiffer(got.Mean, want.Mean) || bitsDiffer(got.Std, want.Std) || got.Count != want.Count {
			t.Fatalf("%s edge %d: stats (%v, %v, %v, %d), want (%v, %v, %v, %d)", label, e,
				got.MinTime, got.Mean, got.Std, got.Count, want.MinTime, want.Mean, want.Std, want.Count)
		}
		if kb.Edge(graph.EdgeID(e)).Marginal != got.Marginal {
			t.Fatalf("%s edge %d: two reads of Edge returned different marginal pointers", label, e)
		}
		if got.Count == 0 {
			unobserved++
			priors[got.Marginal] = true
		}
	}
	observed, edges, distinct := kb.EdgeCoverage()
	if observed != g.NumEdges()-unobserved || edges != g.NumEdges() || distinct != observed+len(priors) {
		t.Errorf("%s: EdgeCoverage = (%d, %d, %d), want (%d, %d, %d)", label,
			observed, edges, distinct, g.NumEdges()-unobserved, g.NumEdges(), g.NumEdges()-unobserved+len(priors))
	}
	return kb, unobserved, len(priors)
}

func TestKnowledgeBaseMatchesPerEdgeReference(t *testing.T) {
	g, sobs, width := goldenSubstrate(t)
	for s := 0; s < sobs.K(); s++ {
		checkAgainstReference(t, fmt.Sprintf("golden slice %d", s), g, sobs.Slice(s), width)
	}

	g, obs, width := sparseSubstrate(t)
	_, unobserved, distinct := checkAgainstReference(t, "sparse", g, obs, width)
	if 10*unobserved < 9*g.NumEdges() {
		t.Fatalf("sparse fixture: %d of %d edges unobserved, want at least 90%%", unobserved, g.NumEdges())
	}
	if 100*distinct > 2*unobserved {
		t.Errorf("sparse fixture: %d distinct marginals among %d unobserved edges, want at most 2%%", distinct, unobserved)
	}
}

// TestObservedEdgeAllocations bounds what pass 2 allocates for an edge
// with data: the empirical histogram, the mixture and its trim — no
// per-edge prior, and no map to build one in (6.5 measured; the map
// version read 11.1 on the same store).
func TestObservedEdgeAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := getEnv(t)
	width := e.kb.Width
	obs := traj.NewObservationStore(e.g, width)
	r := rng.New(5)
	for id := 0; id < e.g.NumEdges(); id++ {
		ff := e.g.Edge(graph.EdgeID(id)).FreeFlowSeconds()
		for i := 0; i < 12; i++ {
			obs.Edge[graph.EdgeID(id)] = append(obs.Edge[graph.EdgeID(id)], ff*(0.4+4.6*r.Float64()))
		}
	}
	perBuild := testing.AllocsPerRun(5, func() {
		if _, err := BuildKnowledgeBase(e.g, obs, width, 10); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 8
	if perEdge := perBuild / float64(e.g.NumEdges()); perEdge > ceiling {
		t.Errorf("%.1f allocations per observed edge, ceiling %d", perEdge, ceiling)
	}
}

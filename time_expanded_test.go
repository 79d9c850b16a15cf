package stochroute

import (
	"context"
	"math"
	"runtime"
	"sync"
	"testing"

	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// requireSameSearch asserts two routing results are the same search:
// identical route, bit-identical probability and distribution, and
// identical search + cost-model telemetry.
func requireSameSearch(t *testing.T, label string, got, want *RouteResult) {
	t.Helper()
	if got.Found != want.Found || got.Complete != want.Complete {
		t.Fatalf("%s: found/complete (%v,%v) != (%v,%v)", label, got.Found, got.Complete, want.Found, want.Complete)
	}
	if got.Prob != want.Prob {
		t.Fatalf("%s: prob %v != %v (not bit-equal)", label, got.Prob, want.Prob)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("%s: path length %d != %d", label, len(got.Path), len(want.Path))
	}
	for i := range want.Path {
		if got.Path[i] != want.Path[i] {
			t.Fatalf("%s: path differs at %d", label, i)
		}
	}
	if (got.Dist == nil) != (want.Dist == nil) {
		t.Fatalf("%s: dist nil mismatch", label)
	}
	if got.Dist != nil {
		if got.Dist.Min != want.Dist.Min || got.Dist.Width != want.Dist.Width || len(got.Dist.P) != len(want.Dist.P) {
			t.Fatalf("%s: distribution shape differs", label)
		}
		for i := range want.Dist.P {
			if got.Dist.P[i] != want.Dist.P[i] {
				t.Fatalf("%s: dist bucket %d: %v != %v", label, i, got.Dist.P[i], want.Dist.P[i])
			}
		}
	}
	if got.Expansions != want.Expansions || got.GeneratedLabels != want.GeneratedLabels ||
		got.PrunedPotential != want.PrunedPotential || got.PrunedPivot != want.PrunedPivot ||
		got.PrunedDominance != want.PrunedDominance {
		t.Fatalf("%s: search telemetry differs:\n  got:  exp=%d gen=%d pot=%d piv=%d dom=%d\n  want: exp=%d gen=%d pot=%d piv=%d dom=%d",
			label,
			got.Expansions, got.GeneratedLabels, got.PrunedPotential, got.PrunedPivot, got.PrunedDominance,
			want.Expansions, want.GeneratedLabels, want.PrunedPotential, want.PrunedPivot, want.PrunedDominance)
	}
	if got.NumConvolved != want.NumConvolved || got.NumEstimated != want.NumEstimated {
		t.Fatalf("%s: decisions (%d,%d) != (%d,%d)", label,
			got.NumConvolved, got.NumEstimated, want.NumConvolved, want.NumEstimated)
	}
}

// TestTimeExpandedK1Equivalence: on a 1-slice engine there is only one
// model, so time-expanded routing must be bit-identical to the classic
// path for EVERY departure — route, probability, distribution,
// telemetry and epoch — with SliceSeq reporting slice 0 per edge.
func TestTimeExpandedK1Equivalence(t *testing.T) {
	e := testEngine(t)
	if e.NumSlices() != 1 {
		t.Fatalf("default engine has %d slices, want 1", e.NumSlices())
	}
	qs, err := e.SampleQueries(0.5, 1.5, 4, 171)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range qs {
		opt, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			continue
		}
		for _, depart := range []float64{0, 6 * 3600, 43100, 86000} {
			budget := 1.5 * opt
			want, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart})
			if err != nil {
				t.Fatalf("query %d: classic: %v", qi, err)
			}
			got, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart, TimeExpanded: true})
			if err != nil {
				t.Fatalf("query %d: time-expanded: %v", qi, err)
			}
			requireSameSearch(t, "K=1 expanded vs classic", got, want)
			if got.ModelEpoch != want.ModelEpoch || got.ModelEpoch != e.ModelEpoch() {
				t.Fatalf("query %d: epochs differ: %d vs %d (engine %d)", qi, got.ModelEpoch, want.ModelEpoch, e.ModelEpoch())
			}
			if want.SliceSeq != nil {
				t.Fatalf("query %d: classic result carries a slice sequence", qi)
			}
			if got.Found {
				if len(got.SliceSeq) != len(got.Path) {
					t.Fatalf("query %d: slice seq length %d != path length %d", qi, len(got.SliceSeq), len(got.Path))
				}
				for i, s := range got.SliceSeq {
					if s != 0 {
						t.Fatalf("query %d: slice seq[%d] = %d on a 1-slice engine", qi, i, s)
					}
				}
			}
		}
	}

	// The batched path under the flag carries the (global == slice)
	// epoch and the same answers.
	q := qs[0]
	opt, err := e.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	items := e.RouteBatch(context.Background(), []BatchQuery{
		{Source: q.Source, Dest: q.Dest, Opts: RouteOptions{Budget: 1.5 * opt, TimeExpanded: true}},
	}, 1)
	if items[0].Err != nil {
		t.Fatal(items[0].Err)
	}
	if items[0].Epoch != e.ModelEpoch() {
		t.Fatalf("batched time-expanded item epoch %d, want %d", items[0].Epoch, e.ModelEpoch())
	}
}

// The dedicated 2-slice world engine of the time-expanded tests: slice
// 0 is a hard rush hour (most mode mass shifted onto the most congested
// mode), slice 1 keeps the base prior, and the serving models are
// per-slice convolution models built straight from slice-labelled
// trajectories — no training, so the whole setup is fast and
// deterministic while the slice contrast stays strong.
var (
	expOnce   sync.Once
	expEng    *Engine
	expEngErr error
)

func expandedTestEngine(t testing.TB) *Engine {
	t.Helper()
	expOnce.Do(func() {
		expEng, expEngErr = buildExpandedTestEngine()
	})
	if expEngErr != nil {
		t.Fatalf("expanded test engine: %v", expEngErr)
	}
	return expEng
}

func buildExpandedTestEngine() (*Engine, error) {
	const K = 2
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 14, 14
	ncfg.CellMeters = 130
	g, err := netgen.Generate(ncfg)
	if err != nil {
		return nil, err
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, K, 0, 0.75)
	if err != nil {
		return nil, err
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		return nil, err
	}
	trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 6000, MinEdges: 4, MaxEdges: 24, Seed: 5,
		RouteFraction: 0.5, NumRoutes: 600, RouteJitter: 0.25,
		Slices: K,
	})
	if err != nil {
		return nil, err
	}
	width := wcfg.BucketWidth
	obs := traj.NewSlicedObservations(g, width, K)
	obs.Collect(trajs)
	models := make([]*hybrid.Model, K)
	for s := 0; s < K; s++ {
		kb, err := hybrid.BuildKnowledgeBase(g, obs.Slice(s), width, 10)
		if err != nil {
			return nil, err
		}
		models[s] = &hybrid.Model{KB: kb} // no estimator: always convolve
	}
	set, err := hybrid.NewModelSet(models)
	if err != nil {
		return nil, err
	}
	eng, err := NewEngineWithModelSet(g, trajs, width, 10, set)
	if err != nil {
		return nil, err
	}
	eng.world = world
	return eng, nil
}

// longPeakQuery picks the sampled query with the largest optimistic
// travel time — the trip most likely to cross a slice boundary.
func longPeakQuery(t *testing.T, e *Engine) (q Query, optimistic float64) {
	t.Helper()
	qs, err := e.SampleQueries(1.2, 2.6, 24, 9)
	if err != nil && len(qs) == 0 {
		t.Fatalf("SampleQueries: %v", err)
	}
	best := -1.0
	for _, cand := range qs {
		opt, err := e.OptimisticTime(cand.Source, cand.Dest)
		if err != nil {
			continue
		}
		if opt > best {
			best, q = opt, cand
		}
	}
	if best <= 0 {
		t.Fatal("no reachable sampled query")
	}
	return q, best
}

// TestTimeExpandedShortTripEquivalence: a trip whose whole search
// horizon stays inside its departure slice must be bit-identical to
// departure-slice routing even with time-expanded lookup on — slice
// re-selection, frontier partitioning and the potential bound all
// degenerate to the classic search.
func TestTimeExpandedShortTripEquivalence(t *testing.T) {
	e := expandedTestEngine(t)
	qs, err := e.SampleQueries(0.4, 1.0, 6, 31)
	if err != nil && len(qs) == 0 {
		t.Fatalf("SampleQueries: %v", err)
	}
	for _, slice := range []int{0, 1} {
		depart := traj.SliceStart(slice, e.NumSlices()) + 900
		for qi, q := range qs {
			opt, err := e.OptimisticTime(q.Source, q.Dest)
			if err != nil {
				continue
			}
			budget := 1.5 * opt
			// The search horizon (1.3 x budget plus one bucket) must fit
			// inside the departure slice for the equivalence to be exact.
			if depart+1.3*budget+e.Model().Width() >= traj.SliceStart(slice+1, e.NumSlices()) {
				t.Fatalf("test setup: horizon leaves slice %d", slice)
			}
			want, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart})
			if err != nil {
				t.Fatalf("slice %d query %d: classic: %v", slice, qi, err)
			}
			got, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart, TimeExpanded: true})
			if err != nil {
				t.Fatalf("slice %d query %d: expanded: %v", slice, qi, err)
			}
			requireSameSearch(t, "short trip expanded vs classic", got, want)
			if got.Slice != slice || want.Slice != slice {
				t.Fatalf("slice %d query %d: result slices %d/%d", slice, qi, got.Slice, want.Slice)
			}
			for i, s := range got.SliceSeq {
				if s != slice {
					t.Fatalf("slice %d query %d: slice seq[%d] = %d", slice, qi, i, s)
				}
			}
		}
	}
}

// TestTimeExpandedCrossesBoundaryAccuracy is the payoff test: for a
// long trip departing late in the rush-hour slice, time-expanded
// routing's distribution must be strictly closer (in KL divergence) to
// the world's time-expanded path truth than the departure-slice
// distribution for the same path — the departure-slice model keeps
// paying peak costs after the trip has crossed into the off-peak
// slice.
func TestTimeExpandedCrossesBoundaryAccuracy(t *testing.T) {
	e := expandedTestEngine(t)
	k := e.NumSlices()
	q, opt := longPeakQuery(t, e)
	budget := 3 * opt

	// First pass: measure the trip's mean under the time-expanded
	// model from a mid-peak departure, then place the departure so the
	// trip straddles the slice 0 -> slice 1 boundary.
	probe, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: traj.SliceMid(0, k), TimeExpanded: true})
	if err != nil || !probe.Found {
		t.Fatalf("probe route: err=%v found=%v", err, probe != nil && probe.Found)
	}
	meanTrip := probe.Dist.Mean()
	boundary := traj.SliceStart(1, k)
	depart := boundary - meanTrip/2
	if depart <= traj.SliceStart(0, k) {
		t.Fatalf("trip mean %.0fs too long for the slice layout", meanTrip)
	}

	res, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart, TimeExpanded: true})
	if err != nil || !res.Found {
		t.Fatalf("boundary route: err=%v", err)
	}
	if res.Slice != 0 {
		t.Fatalf("departure slice %d, want 0", res.Slice)
	}
	if res.ModelEpoch != e.ModelEpoch() {
		t.Fatalf("time-expanded epoch %d, want global %d", res.ModelEpoch, e.ModelEpoch())
	}
	path := res.Path

	// The model must have actually crossed: the slice sequence starts
	// in the peak and ends off-peak.
	if len(res.SliceSeq) != len(path) {
		t.Fatalf("slice seq length %d != path length %d", len(res.SliceSeq), len(path))
	}
	if res.SliceSeq[0] != 0 || res.SliceSeq[len(res.SliceSeq)-1] != 1 {
		t.Fatalf("slice sequence %v does not cross the 0->1 boundary", res.SliceSeq)
	}
	for i := 1; i < len(res.SliceSeq); i++ {
		if res.SliceSeq[i] < res.SliceSeq[i-1] {
			t.Fatalf("slice sequence %v is not monotone for an intra-day trip", res.SliceSeq)
		}
	}

	// Accuracy on the chosen path, against the world's time-expanded
	// oracle.
	truth, truthSlices, err := e.TrueDistributionExpanded(depart, path)
	if err != nil {
		t.Fatal(err)
	}
	if truthSlices[0] != 0 || truthSlices[len(truthSlices)-1] != 1 {
		t.Fatalf("oracle slice sequence %v does not cross the boundary", truthSlices)
	}
	expandedDist, modelSlices, err := e.PathDistributionExpanded(depart, path)
	if err != nil {
		t.Fatal(err)
	}
	if modelSlices[0] != 0 || modelSlices[len(modelSlices)-1] != 1 {
		t.Fatalf("model slice sequence %v does not cross the boundary", modelSlices)
	}
	departDist, err := e.PathDistributionAt(depart, path)
	if err != nil {
		t.Fatal(err)
	}

	const eps = 1e-9
	klExpanded, err := hist.KL(truth, expandedDist, eps)
	if err != nil {
		t.Fatal(err)
	}
	klDeparture, err := hist.KL(truth, departDist, eps)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("trip mean %.0fs depart %.0fs: KL(truth||expanded)=%.4f KL(truth||departure-slice)=%.4f",
		meanTrip, depart, klExpanded, klDeparture)
	if !(klExpanded < klDeparture) {
		t.Fatalf("time-expanded model no closer to truth: KL expanded %.4f vs departure %.4f", klExpanded, klDeparture)
	}
	// The win must come from the temporal structure, not noise: the
	// departure-slice model's mean should overshoot the truth's by
	// clearly more than the expanded model's.
	if math.Abs(expandedDist.Mean()-truth.Mean()) >= math.Abs(departDist.Mean()-truth.Mean()) {
		t.Fatalf("expanded mean error %.1fs not below departure-slice mean error %.1fs",
			math.Abs(expandedDist.Mean()-truth.Mean()), math.Abs(departDist.Mean()-truth.Mean()))
	}
}

// TestNewEngineWithModelSetSameAnswerAcrossWorkers: the per-slice
// knowledge bases, the slices' observation stores and the landmark
// sweeps are built side by side when there are cores for it. An engine
// assembled on one core and one assembled on four must be the same
// engine: a boundary-crossing time-expanded query and a classic one get
// the same path, the same distribution bits and the same search counters
// from both.
func TestNewEngineWithModelSetSameAnswerAcrossWorkers(t *testing.T) {
	var want []*RouteResult
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		e, err := buildExpandedTestEngine()
		if err == nil {
			err = e.SetLandmarks(6)
		}
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		q, opt := longPeakQuery(t, e)
		depart := traj.SliceStart(1, e.NumSlices()) - opt
		var got []*RouteResult
		for _, opts := range []RouteOptions{
			{Budget: 1.5 * opt, Departure: depart, TimeExpanded: true},
			{Budget: 1.5 * opt, Departure: depart},
		} {
			res, err := e.RouteCtx(context.Background(), q.Source, q.Dest, opts)
			if err != nil || !res.Found {
				t.Fatalf("GOMAXPROCS %d: route: err=%v", procs, err)
			}
			got = append(got, res)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range want {
			requireSameSearch(t, "engine built on four cores vs on one", got[i], want[i])
		}
	}
}

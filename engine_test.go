package stochroute

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

var (
	engOnce sync.Once
	eng     *Engine
	engErr  error
)

// testEngineConfig is the configuration testEngine builds from.
func testEngineConfig() Config {
	cfg := DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 20, 20
	cfg.Network.CellMeters = 130
	cfg.Walk.NumTrajectories = 3000
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 400, 100
	cfg.Hybrid.MinPairObs = 12
	cfg.Hybrid.Estimator.Train.Epochs = 30
	cfg.Hybrid.PrefixRows = 2000
	return cfg
}

func testEngine(t testing.TB) *Engine {
	t.Helper()
	engOnce.Do(func() {
		eng, engErr = BuildEngine(testEngineConfig(), io.Discard)
	})
	if engErr != nil {
		t.Fatalf("BuildEngine: %v", engErr)
	}
	return eng
}

func TestBuildEngineEndToEnd(t *testing.T) {
	e := testEngine(t)
	if e.Graph().NumVertices() == 0 {
		t.Fatal("empty graph")
	}
	if e.Report == nil || e.Report.TestPairs == 0 {
		t.Fatal("no evaluation report")
	}
	if e.Report.MeanKLHybrid >= e.Report.MeanKLConv {
		t.Errorf("hybrid KL %v should beat convolution %v",
			e.Report.MeanKLHybrid, e.Report.MeanKLConv)
	}
	if e.World() == nil {
		t.Error("synthetic engine should expose its world")
	}
}

func TestEngineRoute(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.35 * optimistic
		res, err := e.Route(q.Source, q.Dest, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("no path for %v", q)
		}
		if res.Prob < 0 || res.Prob > 1 {
			t.Errorf("Prob = %v", res.Prob)
		}
		if err := res.Dist.Validate(); err != nil {
			t.Errorf("result distribution invalid: %v", err)
		}
		// The returned distribution's budget probability matches Prob.
		if math.Abs(res.Dist.ProbWithinBudget(budget)-res.Prob) > 1e-9 {
			t.Error("Prob inconsistent with Dist")
		}
	}
}

func TestEngineRouteAnytime(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(1.0, 2.0, 1, 43)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimistic, err := e.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: 1.35 * optimistic, MaxDuration: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Error("anytime with generous limit should find a path")
	}
}

func TestEnginePathDistributions(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 1, 44)
	if err != nil {
		t.Fatal(err)
	}
	path, meanCost, err := e.MeanRoute(qs[0].Source, qs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	if meanCost <= 0 {
		t.Errorf("mean cost %v", meanCost)
	}
	hyb, err := e.PathDistributionAt(0, path)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := hybrid.PathCost(&hybrid.ConvolutionCoster{KB: e.SliceKnowledgeBase(0), MaxBuckets: e.SliceModel(0).MaxBuckets}, path)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := e.TrueDistribution(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, h := range map[string]*Hist{"hybrid": hyb, "conv": conv, "truth": truth} {
		if err := h.Validate(); err != nil {
			t.Errorf("%s distribution invalid: %v", name, err)
		}
	}
	// Means should be in the same ballpark as the deterministic mean cost.
	if hyb.Mean() < meanCost*0.5 || hyb.Mean() > meanCost*2 {
		t.Errorf("hybrid mean %v far from weight-sum %v", hyb.Mean(), meanCost)
	}
}

// TestEnginePathFacadeRejectsNonPaths: every method that costs an
// explicit path answers an empty path, an edge ID outside the graph and
// two edges that do not meet with an error, never a panic or a
// distribution; a real path gets the bits the cost model gives it.
func TestEnginePathFacadeRejectsNonPaths(t *testing.T) {
	e := testEngine(t)
	g := e.Graph()
	qs, err := e.SampleQueries(0.5, 1.5, 1, 44)
	if err != nil {
		t.Fatal(err)
	}
	path, _, err := e.MeanRoute(qs[0].Source, qs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	apart := EdgeID(1)
	for g.Edge(0).To == g.Edge(apart).From {
		apart++
	}
	n := EdgeID(g.NumEdges())
	dists := map[string]func([]EdgeID) (*Hist, error){
		"PathDistributionAt": func(p []EdgeID) (*Hist, error) { return e.PathDistributionAt(0, p) },
		"PathDistributionExpanded": func(p []EdgeID) (*Hist, error) {
			h, _, err := e.PathDistributionExpanded(0, p)
			return h, err
		},
		"TrueDistribution": e.TrueDistribution,
	}
	bad := map[string][]EdgeID{
		"nil":               nil,
		"empty":             {},
		"id NumEdges":       {n},
		"id past the end":   {path[0], n + 5},
		"negative id":       {-1},
		"edges do not meet": {0, apart},
	}
	for name, dist := range dists {
		for what, p := range bad {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s(%s) panicked: %v", name, what, r)
					}
				}()
				if h, err := dist(p); err == nil {
					t.Errorf("%s(%s) = %v, want an error", name, what, h)
				}
			}()
		}
	}

	want := map[string]*Hist{}
	if want["PathDistributionAt"], err = hybrid.PathCost(e.SliceModel(0), path); err != nil {
		t.Fatal(err)
	}
	if want["PathDistributionExpanded"], _, err = hybrid.PathCostElapsed(e.ModelSet().TimeExpandedCoster(0, nil), path); err != nil {
		t.Fatal(err)
	}
	if want["TrueDistribution"], err = e.World().PathTruth(path); err != nil {
		t.Fatal(err)
	}
	for name, dist := range dists {
		got, err := dist(path)
		if err != nil {
			t.Fatalf("%s of a real path: %v", name, err)
		}
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s of a real path changed its bits", name)
		}
	}
}

// TestEngineConcurrentQueriesMatchSerial is the concurrency gate of the
// serving refactor: 12 goroutines answer the same routing queries on
// ONE shared engine — no clones, no locks — and every answer must be
// bit-identical to serial execution. Run with -race.
func TestEngineConcurrentQueriesMatchSerial(t *testing.T) {
	e := testEngine(t)
	totals := decisionTotals(t, e)
	qs, err := e.SampleQueries(0.4, 1.5, 6, 47)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		budget float64
		route  *RouteResult
		dist   *Hist
	}
	serial := make([]answer, len(qs))
	for i, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.35 * optimistic
		res, err := e.Route(q.Source, q.Dest, budget)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Found {
			t.Fatalf("no path for %v", q)
		}
		dist, err := e.PathDistributionAt(0, res.Path)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = answer{budget: budget, route: res, dist: dist}
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range qs {
				want := serial[i]
				res, err := e.Route(q.Source, q.Dest, want.budget)
				if err != nil {
					errs[w] = err
					return
				}
				if res.Prob != want.route.Prob {
					errs[w] = fmt.Errorf("worker %d query %d: prob %v != serial %v", w, i, res.Prob, want.route.Prob)
					return
				}
				if !slicesEqual(res.Path, want.route.Path) {
					errs[w] = fmt.Errorf("worker %d query %d: path differs from serial", w, i)
					return
				}
				dist, err := e.PathDistributionAt(0, res.Path)
				if err != nil {
					errs[w] = err
					return
				}
				if dist.Min != want.dist.Min || !floatsEqual(dist.P, want.dist.P) {
					errs[w] = fmt.Errorf("worker %d query %d: distribution differs from serial", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	conv, est := totals()
	if conv+est == 0 {
		t.Error("the decision totals should have accumulated")
	}
}

// decisionTotals attaches a fresh search recorder to e for the rest of
// the test and returns a reader of its convolved and estimated totals
// over every slice: the search_convolved_sum and search_estimated_sum
// series of /metrics.
func decisionTotals(t *testing.T, e *Engine) func() (conv, est uint64) {
	t.Helper()
	reg := obs.NewRegistry()
	e.SetSearchMetrics(obs.NewSearchMetrics(reg, e.NumSlices()))
	t.Cleanup(func() { e.SetSearchMetrics(nil) })
	return func() (conv, est uint64) {
		for s := 0; s < e.NumSlices(); s++ {
			slice := obs.L("slice", strconv.Itoa(s))
			conv += uint64(reg.Histogram("search_convolved", "", nil, slice).Sum())
			est += uint64(reg.Histogram("search_estimated", "", nil, slice).Sum())
		}
		return conv, est
	}
}

func slicesEqual(a, b []EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestEngineRouteReportsDecisionStats checks the per-request telemetry
// threaded through hybrid.QueryStats.
func TestEngineRouteReportsDecisionStats(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 1, 48)
	if err != nil {
		t.Fatal(err)
	}
	optimistic, err := e.OptimisticTime(qs[0].Source, qs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Route(qs[0].Source, qs[0].Dest, 1.35*optimistic)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumConvolved+res.NumEstimated == 0 {
		t.Error("route result should carry per-request decision counts")
	}
}

func TestEngineNearestVertex(t *testing.T) {
	e := testEngine(t)
	p := e.Graph().Point(0)
	if got := e.NearestVertex(p.Lat, p.Lon); got != 0 {
		t.Errorf("NearestVertex on vertex 0's location = %v", got)
	}
}

// TestEngineSaveLoadModel round-trips the serving model set the way
// OpenEngine does: SaveModel, hybrid.ReadModelSet, then an engine
// rebuilt over the same graph and trajectories. The answer keeps its
// bits.
func TestEngineSaveLoadModel(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 1, 45)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimistic, err := e.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.35 * optimistic
	before, err := e.Route(q.Source, q.Dest, budget)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.srhm")
	if err := e.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	set, err := hybrid.ReadModelSet(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	cfg := testEngineConfig()
	trs, err := traj.GenerateTrajectories(e.World(), cfg.Walk)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := NewEngineWithModelSet(e.Graph(), trs, cfg.Hybrid.Width, cfg.Hybrid.MinPairObs, set)
	if err != nil {
		t.Fatal(err)
	}
	after, err := loaded.Route(q.Source, q.Dest, budget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(before.Prob) != math.Float64bits(after.Prob) {
		t.Errorf("model round trip changed answer: %v vs %v", before.Prob, after.Prob)
	}
}

func TestEngineSaveLoadGraph(t *testing.T) {
	e := testEngine(t)
	path := filepath.Join(t.TempDir(), "net.srg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Graph().WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	g, err := LoadGraph(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != e.Graph().NumVertices() || g.NumEdges() != e.Graph().NumEdges() {
		t.Error("graph round trip size mismatch")
	}
}

func TestEnginePairExample(t *testing.T) {
	e := testEngine(t)
	pairs := e.Observations().PairsWithSupport(20)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	hyb, conv, truth, err := e.PairExample(pairs[0].First, pairs[0].Second)
	if err != nil {
		t.Fatal(err)
	}
	if hyb == nil || conv == nil || truth == nil {
		t.Fatal("missing distributions")
	}
	if err := hyb.Validate(); err != nil {
		t.Error(err)
	}
}

func TestMotivatingExampleThroughPublicAPI(t *testing.T) {
	p1, err := NewHistFromPairs(map[float64]float64{45: 0.3, 55: 0.6, 65: 0.1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewHistFromPairs(map[float64]float64{45: 0.6, 55: 0.2, 65: 0.2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p1.ProbWithinBudget(60) <= p2.ProbWithinBudget(60) {
		t.Error("P1 should beat P2 at the deadline")
	}
	if p2.Mean() >= p1.Mean() {
		t.Error("P2 should have the lower mean")
	}
	conv, err := Convolve(p1, p2)
	if err != nil {
		t.Fatal(err)
	}
	if err := conv.Validate(); err != nil {
		t.Error(err)
	}
	if kl, err := KLDivergence(p1, p2, 1e-9); err != nil || kl <= 0 {
		t.Errorf("KL = %v, err = %v", kl, err)
	}
}

func TestNewEngineFromObservationsValidation(t *testing.T) {
	if _, err := NewEngineFromObservations(nil, nil, DefaultConfig().Hybrid, nil); err == nil {
		t.Error("nil graph should error")
	}
}

// TestEngineConstructorsRejectBadTrajectories: a trajectory the
// observation stores cannot bin — a NaN, infinite or day-long time, an
// edge outside the graph — fails both constructors with an error, for a
// sliced build too, and never panics.
func TestEngineConstructorsRejectBadTrajectories(t *testing.T) {
	e := testEngine(t)
	g := e.Graph()
	good := e.Observations().Width * 3
	cfg := DefaultConfig().Hybrid
	for name, bad := range map[string]Trajectory{
		"NaN time":           {Edges: []EdgeID{0}, Times: []float64{math.NaN()}},
		"infinite time":      {Edges: []EdgeID{0}, Times: []float64{math.Inf(1)}},
		"time past the day":  {Edges: []EdgeID{0}, Times: []float64{traj.MaxTravelTime * 2}},
		"edge outside graph": {Edges: []EdgeID{EdgeID(g.NumEdges())}, Times: []float64{good}},
	} {
		trs := []Trajectory{{Edges: []EdgeID{0}, Times: []float64{good}}, bad}
		for _, k := range []int{1, 4} {
			cfg.Slices = k
			if _, err := NewEngineFromObservations(g, trs, cfg, nil); err == nil {
				t.Errorf("%s: NewEngineFromObservations with %d slices accepted it", name, k)
			}
		}
		recipe, _ := e.ModelSet().Recipe()
		if _, err := NewEngineWithModelSet(g, trs, recipe.Width, recipe.MinPairObs, e.ModelSet()); err == nil {
			t.Errorf("%s: NewEngineWithModelSet accepted it", name)
		}
	}
}

// TestEngineHotSwapDuringQueries exercises the epoch-tagged model swap
// while queries run (the -race gate for SwapSliceModel): answers must
// stay correct throughout, and post-swap results must carry the new
// epoch. The swapped-in model shares the serving model's weights, so
// every answer — whichever generation gave it — must equal the serial
// baseline. The decision totals of an attached search recorder (the
// /metrics search_convolved and search_estimated sums) must grow by
// exactly what the answered queries report, in-flight queries on a
// retiring generation included.
func TestEngineHotSwapDuringQueries(t *testing.T) {
	e := testEngine(t)
	totals := decisionTotals(t, e)
	conv0, est0 := totals()
	var conv, est atomic.Uint64
	answered := func(res *RouteResult) {
		conv.Add(uint64(res.NumConvolved))
		est.Add(uint64(res.NumEstimated))
	}
	qs, err := e.SampleQueries(0.4, 1.2, 4, 51)
	if err != nil {
		t.Fatal(err)
	}
	budgets := make([]float64, len(qs))
	want := make([]float64, len(qs))
	for i, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budgets[i] = 1.35 * optimistic
		res, err := e.Route(q.Source, q.Dest, budgets[i])
		if err != nil {
			t.Fatal(err)
		}
		answered(res)
		want[i] = res.Prob
	}

	startEpoch := e.ModelEpoch()
	clone := sameWeightsModel(e.SliceModel(0))

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				k := (w + i) % len(qs)
				res, err := e.Route(qs[k].Source, qs[k].Dest, budgets[k])
				if err != nil {
					errs[w] = err
					return
				}
				answered(res)
				if res.Prob != want[k] {
					errs[w] = fmt.Errorf("worker %d: prob %v != serial %v (epoch %d)", w, res.Prob, want[k], res.ModelEpoch)
					return
				}
				if res.ModelEpoch < startEpoch || res.ModelEpoch > startEpoch+1 {
					errs[w] = fmt.Errorf("worker %d: unexpected epoch %d", w, res.ModelEpoch)
					return
				}
			}
		}(w)
	}

	epoch, err := e.SwapSliceModel(0, clone, nil)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != startEpoch+1 {
		t.Errorf("swap returned epoch %d, want %d", epoch, startEpoch+1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if e.ModelEpoch() != epoch {
		t.Errorf("ModelEpoch = %d, want %d", e.ModelEpoch(), epoch)
	}
	res, err := e.Route(qs[0].Source, qs[0].Dest, budgets[0])
	if err != nil {
		t.Fatal(err)
	}
	answered(res)
	if res.ModelEpoch != epoch {
		t.Errorf("post-swap route carries epoch %d, want %d", res.ModelEpoch, epoch)
	}
	if conv.Load() == 0 || est.Load() == 0 {
		t.Fatalf("the queries report %d convolved, %d estimated: nothing to count", conv.Load(), est.Load())
	}
	if c, s := totals(); c-conv0 != conv.Load() || s-est0 != est.Load() {
		t.Errorf("the decision totals grew by (%d, %d) across the swap; the answered queries report (%d, %d)",
			c-conv0, s-est0, conv.Load(), est.Load())
	}
}

// twoSliceEngine builds a fresh, lightly trained 2-slice engine for a
// test that publishes generations of its own.
func twoSliceEngine(t *testing.T) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 8, 8
	cfg.Network.CellMeters = 130
	cfg.Walk.NumTrajectories = 1200
	cfg.Walk.Slices, cfg.Hybrid.Slices = 2, 2
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 120, 30
	cfg.Hybrid.MinPairObs = 6
	cfg.Hybrid.Estimator.Train.Epochs = 3
	cfg.Hybrid.PrefixRows = 0
	e, err := BuildEngine(cfg, io.Discard)
	if err != nil {
		t.Fatalf("BuildEngine: %v", err)
	}
	return e
}

// TestSnapshotSuccessorCarriesEveryField drives publish through each of
// its callers on a 2-slice engine with landmarks on. After each call
// the epoch is one higher, exactly the stated slices' epochs advanced,
// every modelSnapshot field the call does not replace is carried over
// and every field it replaces is new — a field added to the struct and
// dropped by publish fails here — and ALT tables exist only while
// landmarks are on, with the potentials routing.NewALTSet gives over
// the published set.
func TestSnapshotSuccessorCarriesEveryField(t *testing.T) {
	e := twoSliceEngine(t)
	const landmarks = 2
	if err := e.SetLandmarks(landmarks); err != nil {
		t.Fatal(err)
	}
	// Slice 1 swaps to a model of jammed traffic and back, so its ALT
	// metric moves and stale tables would give other potentials.
	g, width := e.Graph(), e.Observations().Width
	wcfg := DefaultConfig().World
	wcfg.ModePrior = []float64{0, 0.5, 0.5}
	jammedWorld, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	jammedTrips, err := traj.GenerateTrajectories(jammedWorld, traj.WalkConfig{NumTrajectories: 600, MinEdges: 4, MaxEdges: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	jammedKB, err := hybrid.BuildKnowledgeBase(g, traj.CollectSlices(g, width, 1, jammedTrips)[0], width, 6)
	if err != nil {
		t.Fatal(err)
	}
	model1 := e.SliceModel(1)
	if slices.Equal(bitsOfMetric(g, jammedKB.MinEdgeTime), bitsOfMetric(g, model1.MinEdgeTime)) {
		t.Fatal("the jammed model keeps slice 1's metric; a stale table could not be told from a rebuilt one")
	}
	store := traj.NewObservationStore(g, width)
	swap := func(m *Model, obs *ObservationStore) func() error {
		return func() error {
			_, err := e.SwapSliceModel(1, m, obs)
			return err
		}
	}
	carried := func(a, b reflect.Value) bool {
		if a.Kind() == reflect.Slice { // the same backing array
			return a.Pointer() == b.Pointer() && a.Len() == b.Len()
		}
		return a.Equal(b)
	}
	for _, step := range []struct {
		name      string
		call      func() error
		replaced  []string // the fields the call replaces, besides the epochs
		advanced  []int    // the slices whose epochs advance
		landmarks int      // the landmark count after the call
	}{
		{"SwapSliceModel(1, m, store)", swap(&Model{KB: jammedKB}, store), []string{"set", "obs", "alt"}, []int{1}, landmarks},
		{"SwapSliceModel(1, m, nil)", swap(sameWeightsModel(model1), nil), []string{"set", "alt"}, []int{1}, landmarks},
		{"SetLandmarks(n)", func() error { return e.SetLandmarks(landmarks + 1) }, []string{"alt"}, []int{0, 1}, landmarks + 1},
		{"SetLandmarks(0)", func() error { return e.SetLandmarks(0) }, []string{"alt"}, []int{0, 1}, 0},
	} {
		prev := e.current.Load()
		if err := step.call(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		next := e.current.Load()
		if next.epoch != prev.epoch+1 {
			t.Errorf("%s: epoch %d, want %d", step.name, next.epoch, prev.epoch+1)
		}
		for s := range prev.sliceEpochs {
			want := prev.sliceEpochs[s]
			if slices.Contains(step.advanced, s) {
				want = next.epoch
			}
			if next.sliceEpochs[s] != want {
				t.Errorf("%s: slice %d epoch %d, want %d", step.name, s, next.sliceEpochs[s], want)
			}
		}
		if &next.sliceEpochs[0] == &prev.sliceEpochs[0] {
			t.Errorf("%s: the new generation advanced the serving one's slice epochs in place", step.name)
		}
		pv, nv := reflect.ValueOf(prev).Elem(), reflect.ValueOf(next).Elem()
		for i := 0; i < pv.NumField(); i++ {
			name := pv.Type().Field(i).Name
			if name == "epoch" || name == "sliceEpochs" {
				continue
			}
			if pv.Field(i).IsZero() {
				t.Fatalf("%s: the fixture leaves %s zero; set it, so the test can tell carried from dropped", step.name, name)
			}
			switch replaced := slices.Contains(step.replaced, name); {
			case !replaced && !carried(nv.Field(i), pv.Field(i)):
				t.Errorf("%s: publish does not carry %s over", step.name, name)
			case replaced && carried(nv.Field(i), pv.Field(i)):
				t.Errorf("%s: publish does not replace %s", step.name, name)
			}
		}
		if step.name == "SwapSliceModel(1, m, store)" && (next.obs[1] != store || next.obs[0] != prev.obs[0]) {
			t.Errorf("%s: stores %v, want slice 0's kept and slice 1's replaced", step.name, next.obs)
		}
		if slices.Equal(step.advanced, []int{1}) && (next.set.At(0) != prev.set.At(0) || next.set.At(1) == prev.set.At(1)) {
			t.Errorf("%s: want slice 0's model kept and slice 1's replaced", step.name)
		}
		if e.Landmarks() != step.landmarks {
			t.Errorf("%s: %d landmarks, want %d", step.name, e.Landmarks(), step.landmarks)
		}
		if step.landmarks == 0 {
			if next.alt != nil {
				t.Errorf("%s: ALT tables with landmarks off", step.name)
			}
			continue
		}
		want, err := routing.NewALTSet(g, next.set, step.landmarks)
		if err != nil {
			t.Fatal(err)
		}
		for s := range next.set.K() {
			samePotentials(t, fmt.Sprintf("%s: slice %d", step.name, s), g, next.alt.Slice(s), want.Slice(s))
		}
		samePotentials(t, step.name+": min-across", g, next.alt.Min(), want.Min())
	}
}

// bitsOfMetric reads an edge metric's bits, edge by edge.
func bitsOfMetric(g *Graph, w routing.WeightFunc) []uint64 {
	out := make([]uint64, g.NumEdges())
	for e := range out {
		out[e] = math.Float64bits(w(EdgeID(e)))
	}
	return out
}

// samePotentials fails unless two ALT tables give every vertex the same
// potential bits towards three destinations.
func samePotentials(t *testing.T, label string, g *Graph, got, want *routing.ALT) {
	t.Helper()
	n := g.NumVertices()
	for _, dest := range []VertexID{0, VertexID(n / 2), VertexID(n - 1)} {
		pg, releaseGot := got.Potentials(dest)
		pw, releaseWant := want.Potentials(dest)
		for v := range n {
			if a, b := pg(VertexID(v)), pw(VertexID(v)); math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: potential of %d towards %d is %v, NewALTSet gives %v", label, v, dest, a, b)
				break
			}
		}
		releaseGot()
		releaseWant()
	}
}

// sameWeightsModel is a second Model over m's knowledge base and
// learned weights: a distinct generation to swap in that answers the
// same bits.
func sameWeightsModel(m *Model) *Model {
	clone := *m
	return &clone
}

func TestEngineSwapModelValidation(t *testing.T) {
	e := testEngine(t)
	if _, err := e.SwapSliceModel(0, nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	orphan := &Model{}
	if _, err := e.SwapSliceModel(0, orphan, nil); err == nil {
		t.Error("model without knowledge base accepted")
	}

	// On a 2-slice engine, a slice on another grid width would reach a
	// time-expanded search's convolutions; knowledge bases over another
	// graph and slices out of range are refused too. publish checks each
	// changed slice of whatever set it is handed, not only the sets
	// WithSlice makes: a model without an estimator can be rebound to
	// any knowledge base (AttachKB) after its set was made.
	e2 := twoSliceEngine(t)
	cur := e2.current.Load()
	kbs := misfitKBs(t, e2)
	for name, kb := range kbs {
		if got, err := e2.SwapSliceModel(1, &Model{KB: kb}, nil); err == nil {
			t.Errorf("2-slice engine: a knowledge base %s accepted at epoch %d", name, got)
		}
	}
	if got, err := e2.SwapSliceModel(2, sameWeightsModel(e2.SliceModel(1)), nil); err == nil {
		t.Errorf("2-slice engine: slice 2 accepted at epoch %d", got)
	}
	kbs["missing"] = nil
	for name, kb := range kbs {
		m := &Model{KB: cur.set.At(1).KB}
		set, err := cur.set.WithSlice(1, m)
		if err != nil {
			t.Fatal(err)
		}
		m.KB = kb
		e2.swapMu.Lock()
		got, err := e2.publish(cur, change{set: set, slices: []int{1}})
		e2.swapMu.Unlock()
		if err == nil {
			t.Errorf("publish: a knowledge base %s published at epoch %d", name, got)
		}
	}
	if e2.current.Load() != cur {
		t.Error("a refused swap published a generation")
	}
}

// misfitKBs returns knowledge bases no slice of e may serve: one on
// twice e's grid width and one over another graph.
func misfitKBs(t *testing.T, e *Engine) map[string]*KnowledgeBase {
	t.Helper()
	ocfg := netgen.DefaultConfig()
	ocfg.Rows, ocfg.Cols = 3, 3
	other, err := netgen.Generate(ocfg)
	if err != nil {
		t.Fatal(err)
	}
	width := e.Observations().Width
	out := map[string]*KnowledgeBase{}
	for name, at := range map[string]struct {
		g     *Graph
		width float64
	}{"on twice the grid width": {e.Graph(), 2 * width}, "over another graph": {other, width}} {
		if out[name], err = hybrid.BuildKnowledgeBase(at.g, traj.NewObservationStore(at.g, at.width), at.width, 6); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

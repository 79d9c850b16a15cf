package stochroute

import (
	"context"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/hybrid"
	"stochroute/internal/traj"
)

var (
	engOnce sync.Once
	eng     *Engine
	engErr  error
)

func testEngine(t testing.TB) *Engine {
	t.Helper()
	engOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Network.Rows, cfg.Network.Cols = 20, 20
		cfg.Network.CellMeters = 130
		cfg.Walk.NumTrajectories = 3000
		cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 400, 100
		cfg.Hybrid.MinPairObs = 12
		cfg.Hybrid.Estimator.Train.Epochs = 30
		cfg.Hybrid.PrefixRows = 2000
		eng, engErr = BuildEngine(cfg, io.Discard)
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
	hyb, err := e.PathDistribution(path)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := e.ConvolutionDistribution(path)
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

// TestEngineConcurrentQueriesMatchSerial is the concurrency gate of the
// serving refactor: 12 goroutines answer the same routing queries on
// ONE shared engine — no clones, no locks — and every answer must be
// bit-identical to serial execution. Run with -race.
func TestEngineConcurrentQueriesMatchSerial(t *testing.T) {
	e := testEngine(t)
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
		dist, err := e.PathDistribution(res.Path)
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
				dist, err := e.PathDistribution(res.Path)
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
	conv, est := e.DecisionCounts()
	if conv+est == 0 {
		t.Error("lifetime decision counters should have accumulated")
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
	if err := e.LoadModel(path); err != nil {
		t.Fatal(err)
	}
	after, err := e.Route(q.Source, q.Dest, budget)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(before.Prob-after.Prob) > 1e-12 {
		t.Errorf("model round trip changed answer: %v vs %v", before.Prob, after.Prob)
	}
}

func TestEngineAlternativeRoutes(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.8, 1.8, 1, 46)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimistic, err := e.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	routes, err := e.AlternativeRoutes(q.Source, q.Dest, 2.5*optimistic, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) == 0 {
		t.Fatal("no alternative routes")
	}
	for i, r := range routes {
		if err := r.Dist.Validate(); err != nil {
			t.Errorf("route %d dist invalid: %v", i, err)
		}
		for j := i + 1; j < len(routes); j++ {
			if routes[i].Dist.Dominates(routes[j].Dist) || routes[j].Dist.Dominates(routes[i].Dist) {
				t.Errorf("skyline members %d and %d dominate each other", i, j)
			}
		}
	}
}

func TestEngineSaveLoadGraph(t *testing.T) {
	e := testEngine(t)
	path := filepath.Join(t.TempDir(), "net.srg")
	if err := e.SaveGraph(path); err != nil {
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

// TestEngineHotSwapDuringQueries exercises the epoch-tagged model swaps
// while queries run (the -race gate for SwapSliceModel and LoadModel):
// answers must stay correct throughout, and post-swap results must
// carry the new epoch. The swapped-in and the loaded model share the
// serving model's weights, so every answer — whichever generation gave
// it — must equal the serial baseline. The engine's lifetime decision
// totals must grow by exactly what the answered queries report,
// in-flight queries on a retiring generation included.
func TestEngineHotSwapDuringQueries(t *testing.T) {
	e := testEngine(t)
	conv0, est0 := e.DecisionCounts()
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
	clone := sameWeightsModel(e.Model())
	saved := filepath.Join(t.TempDir(), "model.srhm")
	if err := e.SaveModel(saved); err != nil {
		t.Fatal(err)
	}

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
				if res.ModelEpoch < startEpoch || res.ModelEpoch > startEpoch+2 {
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
	if err := e.LoadModel(saved); err != nil {
		t.Fatal(err)
	}
	epoch++
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if e.ModelEpoch() != epoch {
		t.Errorf("ModelEpoch = %d, want %d", e.ModelEpoch(), epoch)
	}
	if gotEpoch, at := e.LastSwap(); gotEpoch != epoch || at.IsZero() {
		t.Errorf("LastSwap = (%d, %v)", gotEpoch, at)
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
	if c, s := e.DecisionCounts(); c-conv0 != conv.Load() || s-est0 != est.Load() {
		t.Errorf("DecisionCounts grew by (%d, %d) across two swaps; the answered queries report (%d, %d)",
			c-conv0, s-est0, conv.Load(), est.Load())
	}
}

// TestSnapshotSuccessorCarriesEveryField: a modelSnapshot field is
// either carried into the next generation by successor() or on the
// short list of what a new generation resets. A field added to the
// struct and forgotten by one publisher — the bug hand-copied literals
// invite — fails here.
func TestSnapshotSuccessorCarriesEveryField(t *testing.T) {
	prev := &modelSnapshot{
		set:         &hybrid.ModelSet{},
		obs:         &traj.SlicedObservations{},
		epoch:       7,
		sliceEpochs: []uint64{3, 7},
		swappedAt:   time.Unix(1, 0),
		alt:         &altTables{},
	}
	next := prev.successor()
	reset := map[string]bool{"epoch": true, "swappedAt": true, "sliceEpochs": true}
	pv, nv := reflect.ValueOf(prev).Elem(), reflect.ValueOf(next).Elem()
	for i := 0; i < pv.NumField(); i++ {
		name := pv.Type().Field(i).Name
		if pv.Field(i).IsZero() {
			t.Fatalf("the fixture leaves %s zero; set it, so the test can tell carried from dropped", name)
		}
		if !reset[name] && !nv.Field(i).Equal(pv.Field(i)) {
			t.Errorf("successor() does not carry %s, and it is not on the reset list", name)
		}
	}
	if next.epoch != prev.epoch+1 {
		t.Errorf("epoch %d, want %d", next.epoch, prev.epoch+1)
	}
	if !next.swappedAt.After(prev.swappedAt) {
		t.Errorf("swappedAt %v is not fresh", next.swappedAt)
	}
	if !slices.Equal(next.sliceEpochs, prev.sliceEpochs) || &next.sliceEpochs[0] == &prev.sliceEpochs[0] {
		t.Errorf("sliceEpochs %v: want a copy of %v the successor can advance", next.sliceEpochs, prev.sliceEpochs)
	}
}

// sameWeightsModel is a second Model over m's knowledge base and
// learned weights: a distinct generation to swap in that answers the
// same bits.
func sameWeightsModel(m *Model) *Model {
	return &Model{KB: m.KB, Estimator: m.Estimator, Classifier: m.Classifier, Mode: m.Mode, MaxBuckets: m.MaxBuckets}
}

func TestEngineSwapModelValidation(t *testing.T) {
	e := testEngine(t)
	if _, err := e.SwapModel(nil, nil); err == nil {
		t.Error("nil model accepted")
	}
	orphan := &Model{}
	if _, err := e.SwapModel(orphan, nil); err == nil {
		t.Error("model without knowledge base accepted")
	}
}

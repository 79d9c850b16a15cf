package hybrid

import (
	"bytes"
	"fmt"
	"math"
	"sync"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// testEnv is a small generated world shared by the package tests.
type testEnv struct {
	g     *graph.Graph
	world *traj.World
	trajs []traj.Trajectory
	obs   *traj.ObservationStore
	kb    *KnowledgeBase
}

var (
	envOnce sync.Once
	env     *testEnv
	envErr  error
)

func getEnv(t *testing.T) *testEnv {
	t.Helper()
	envOnce.Do(func() {
		netCfg := netgen.DefaultConfig()
		netCfg.Rows, netCfg.Cols = 14, 14
		netCfg.CellMeters = 130
		g, err := netgen.Generate(netCfg)
		if err != nil {
			envErr = err
			return
		}
		worldCfg := traj.DefaultWorldConfig()
		worldCfg.NoiseProb = 0
		world, err := traj.NewWorld(g, worldCfg)
		if err != nil {
			envErr = err
			return
		}
		trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
			NumTrajectories: 4000, MinEdges: 4, MaxEdges: 14, Seed: 17,
		})
		if err != nil {
			envErr = err
			return
		}
		obs := traj.NewObservationStore(g, worldCfg.BucketWidth)
		obs.Collect(trajs)
		kb, err := BuildKnowledgeBase(g, obs, worldCfg.BucketWidth, 12)
		if err != nil {
			envErr = err
			return
		}
		env = &testEnv{g: g, world: world, trajs: trajs, obs: obs, kb: kb}
	})
	if envErr != nil {
		t.Fatalf("test env: %v", envErr)
	}
	return env
}

func smallTrainConfig() Config {
	cfg := DefaultConfig()
	cfg.MinPairObs = 12
	cfg.TrainPairs = 400
	cfg.TestPairs = 100
	cfg.Estimator.Train.Epochs = 30
	cfg.Estimator.Train.Patience = 5
	cfg.PrefixRows = 2000
	return cfg
}

type worldOracle struct{ w *traj.World }

func (o *worldOracle) PairTruth(k traj.PairKey) (*hist.Hist, error) {
	g := o.w.Graph()
	return o.w.PairJointSum(k.First, k.Second, g.Edge(k.Second).From), nil
}

func (o *worldOracle) PairDependent(k traj.PairKey) bool {
	g := o.w.Graph()
	return o.w.PairIsDependent(g.Edge(k.Second).From)
}

var (
	modelOnce sync.Once
	model     *Model
	report    *EvalReport
	modelErr  error
)

func getModel(t *testing.T) (*Model, *EvalReport) {
	t.Helper()
	e := getEnv(t)
	modelOnce.Do(func() {
		model, report, modelErr = Train(e.kb, e.obs, e.trajs, &worldOracle{e.world}, smallTrainConfig())
	})
	if modelErr != nil {
		t.Fatalf("Train: %v", modelErr)
	}
	return model, report
}

func TestKnowledgeBaseCoversAllEdges(t *testing.T) {
	e := getEnv(t)
	for id := 0; id < e.g.NumEdges(); id++ {
		st := e.kb.Edge(graph.EdgeID(id))
		if st.Marginal == nil {
			t.Fatalf("edge %d has no marginal", id)
		}
		if err := st.Marginal.Validate(); err != nil {
			t.Fatalf("edge %d marginal invalid: %v", id, err)
		}
		if st.MinTime <= 0 {
			t.Fatalf("edge %d MinTime %v", id, st.MinTime)
		}
		if st.Count == 0 {
			// Fallback edges are near-deterministic at the fallback factor.
			ff := e.g.Edge(graph.EdgeID(id)).FreeFlowSeconds()
			if st.Mean < ff*0.5 || st.Mean > ff*3 {
				t.Fatalf("edge %d fallback mean %v implausible for freeflow %v", id, st.Mean, ff)
			}
		}
	}
	if kbf := e.kb.FallbackFactor; kbf < 1 || kbf > 2.5 {
		t.Errorf("fallback factor %v implausible", kbf)
	}
}

func TestKnowledgeBaseCategoryPriors(t *testing.T) {
	// Unobserved edges must inherit their own road class's congestion
	// shape: residential priors are heavier-tailed (relative to free
	// flow) than arterial priors.
	e := getEnv(t)
	type spread struct {
		sum float64
		n   int
	}
	byCat := map[graph.RoadCategory]*spread{}
	for id := 0; id < e.g.NumEdges(); id++ {
		st := e.kb.Edge(graph.EdgeID(id))
		if st.Count > 0 {
			continue // only fallback edges expose the prior directly
		}
		ed := e.g.Edge(graph.EdgeID(id))
		ff := ed.FreeFlowSeconds()
		if ff <= 0 {
			continue
		}
		s := byCat[ed.Category]
		if s == nil {
			s = &spread{}
			byCat[ed.Category] = s
		}
		// Relative 90/10 interquantile spread.
		s.sum += st.Marginal.InterquantileRange(0.1, 0.9) / ff
		s.n++
	}
	res, okR := byCat[graph.Residential]
	sec, okS := byCat[graph.Secondary]
	if !okR || !okS || res.n < 3 || sec.n < 3 {
		t.Skip("not enough unobserved edges of both classes")
	}
	if res.sum/float64(res.n) <= sec.sum/float64(sec.n) {
		t.Errorf("residential prior spread %.3f should exceed secondary %.3f",
			res.sum/float64(res.n), sec.sum/float64(sec.n))
	}
}

func TestSharedModelConcurrentQueries(t *testing.T) {
	// The query path is read-only: many goroutines on ONE model (no
	// clones) must produce exactly the serial answers, race-free.
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(20)
	if len(pairs) > 40 {
		pairs = pairs[:40]
	}
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	serial := make([]*hist.Hist, len(pairs))
	for i, k := range pairs {
		h, err := m.PairSumEstimate(k.First, k.Second)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = h
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, k := range pairs {
				h, err := m.PairSumEstimate(k.First, k.Second)
				if err != nil {
					errs[w] = err
					return
				}
				tv, err := hist.TotalVariation(h, serial[i])
				if err != nil {
					errs[w] = err
					return
				}
				if tv > 0 {
					errs[w] = fmt.Errorf("worker %d pair %v differs from serial by TV %v", w, k, tv)
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
}

func TestWithStatsCountsPerRequest(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	var qs, other QueryStats
	c := m.WithStats(&qs)
	k := pairs[0]
	if _, err := PathCost(c, []graph.EdgeID{k.First, k.Second}); err != nil {
		t.Fatal(err)
	}
	if qs.Convolved+qs.Estimated != 1 {
		t.Errorf("per-request stats counted %d decisions, want 1", qs.Convolved+qs.Estimated)
	}
	// A second request's view of the same model counts its own
	// decisions and nobody else's.
	if _, err := PathCost(m.WithStats(&other), []graph.EdgeID{k.First, k.Second}); err != nil {
		t.Fatal(err)
	}
	if other != qs {
		t.Errorf("a second request over the same path counted %+v, the first %+v", other, qs)
	}
	if got := m.WithStats(nil); got != Coster(m) {
		t.Error("WithStats(nil) should return the model itself")
	}
}

func TestKnowledgeBaseMinTimeIsAdmissible(t *testing.T) {
	e := getEnv(t)
	for id := 0; id < e.g.NumEdges(); id++ {
		st := e.kb.Edge(graph.EdgeID(id))
		if st.Count == 0 {
			continue
		}
		if st.MinTime > st.Marginal.Min+1e-9 {
			t.Fatalf("edge %d MinTime %v above marginal min %v", id, st.MinTime, st.Marginal.Min)
		}
	}
}

func TestBandWeightsPartition(t *testing.T) {
	h := hist.New(10, 2, []float64{0.1, 0.2, 0.3, 0.2, 0.1, 0.1})
	parts := BandWeights(h, 4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0.0
	for _, p := range parts {
		total += p.Mass
		sub := 0.0
		for _, m := range p.P {
			sub += m
		}
		if math.Abs(sub-p.Mass) > 1e-12 {
			t.Errorf("part mass %v != sum %v", p.Mass, sub)
		}
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("band masses sum to %v", total)
	}
}

func TestBandWeightsDegenerate(t *testing.T) {
	// The midpoint rule places a point mass at cumulative 0.5, i.e. the
	// middle band — and BandOfValue must agree, or training labels and
	// inference bands would diverge.
	h := hist.Delta(42, 2)
	parts := BandWeights(h, 4)
	wantBand := BandOfValue(h, 42, 4)
	if parts[wantBand].Mass != 1 {
		t.Errorf("degenerate mass not in band %d: %+v", wantBand, parts)
	}
	for b := 0; b < 4; b++ {
		if b != wantBand && parts[b].Mass != 0 {
			t.Errorf("band %d has mass %v", b, parts[b].Mass)
		}
	}
}

func TestBandOfValueConsistentWithBandWeights(t *testing.T) {
	h := hist.New(0, 1, []float64{0.25, 0.25, 0.25, 0.25})
	parts := BandWeights(h, 4)
	for i := range h.P {
		v := h.Value(i)
		b := BandOfValue(h, v, 4)
		// The support point's mass must live in the band it maps to.
		off := int(math.Round((v - parts[b].Min) / h.Width))
		if parts[b].P == nil || off < 0 || off >= len(parts[b].P) || parts[b].P[off] == 0 {
			t.Errorf("value %v maps to band %d which does not hold it", v, b)
		}
	}
	// Out-of-range values clamp.
	if BandOfValue(h, -100, 4) != 0 {
		t.Error("below-support value should be band 0")
	}
	if BandOfValue(h, 100, 4) != 3 {
		t.Error("above-support value should be last band")
	}
}

func TestFeaturesShapeAndTranslationInvariance(t *testing.T) {
	e := getEnv(t)
	h := hist.New(100, 2, []float64{0.3, 0.4, 0.3})
	ps := PairStats{Count: 40, Corr: 0.5, MI: 0.2}
	f1 := Features(e.kb, h, 0, ps, true)
	if len(f1) != NumFeatures {
		t.Fatalf("feature length %d != NumFeatures %d", len(f1), NumFeatures)
	}
	// The virtual block is translation invariant.
	f2 := Features(e.kb, h.Shift(500), 0, ps, true)
	for i := 0; i < numVirtualFeatures; i++ {
		if math.Abs(f1[i]-f2[i]) > 1e-9 {
			t.Errorf("virtual feature %d not translation invariant: %v vs %v", i, f1[i], f2[i])
		}
	}
	if len(ClassifierFeatures(ps)) != NumClassifierFeatures {
		t.Error("classifier feature length mismatch")
	}
}

func TestTrainedModelBeatsConvolution(t *testing.T) {
	_, rep := getModel(t)
	if rep.MeanKLHybrid >= rep.MeanKLConv {
		t.Errorf("hybrid KL %v should beat convolution %v", rep.MeanKLHybrid, rep.MeanKLConv)
	}
	if rep.MeanKLHybridDep >= rep.MeanKLConvDep {
		t.Errorf("dependent-pair hybrid KL %v should beat convolution %v",
			rep.MeanKLHybridDep, rep.MeanKLConvDep)
	}
	if rep.ClassifierConfusion.Accuracy() < 0.7 {
		t.Errorf("classifier accuracy %v", rep.ClassifierConfusion.Accuracy())
	}
	if rep.DependentFrac < 0.4 || rep.DependentFrac > 0.95 {
		t.Errorf("dependent fraction %v", rep.DependentFrac)
	}
}

func TestModelExtendProducesValidDistributions(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	var qs QueryStats
	c := m.WithStats(&qs)
	n := min(len(pairs), 100)
	for _, k := range pairs[:n] {
		out, err := PathCost(c, []graph.EdgeID{k.First, k.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := out.Validate(); err != nil {
			t.Fatalf("pair (%d,%d) estimate invalid: %v", k.First, k.Second, err)
		}
		// Sum cost can never undercut the optimistic bound.
		minBound := e.kb.MinEdgeTime(k.First) + e.kb.MinEdgeTime(k.Second)
		if out.Min < minBound-1e-6 {
			t.Fatalf("pair (%d,%d) min %v below optimistic bound %v", k.First, k.Second, out.Min, minBound)
		}
	}
	if qs.Convolved+qs.Estimated != n {
		t.Errorf("%d extensions counted %+v", n, qs)
	}
}

func TestModelModes(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	var k traj.PairKey
	found := false
	for _, cand := range e.obs.PairsWithSupport(20) {
		if m.Classifier.PredictDependent(mustPair(t, e.kb, cand)) {
			k = cand
			found = true
			break
		}
	}
	if !found {
		t.Skip("no classifier-dependent pair")
	}
	prev := m.Mode
	defer func() { m.Mode = prev }()

	decide := func() (qs QueryStats) {
		t.Helper()
		if _, err := PathCost(m.WithStats(&qs), []graph.EdgeID{k.First, k.Second}); err != nil {
			t.Fatal(err)
		}
		return qs
	}
	m.Mode = AlwaysConvolve
	if qs := decide(); qs != (QueryStats{Convolved: 1}) {
		t.Errorf("AlwaysConvolve decided %+v", qs)
	}

	m.Mode = AlwaysEstimate
	if qs := decide(); qs != (QueryStats{Estimated: 1}) {
		t.Errorf("AlwaysEstimate decided %+v", qs)
	}

	m.Mode = Auto
	if !m.ShouldEstimate(k.First, k.Second) {
		t.Error("Auto mode should estimate a classifier-dependent pair")
	}
}

func mustPair(t *testing.T, kb *KnowledgeBase, k traj.PairKey) PairStats {
	t.Helper()
	ps, ok := kb.Pair(k.First, k.Second)
	if !ok {
		t.Fatalf("pair %v not in kb", k)
	}
	return ps
}

// TestPairIndexMatchesPairMap: the per-first-edge pair index answers
// every (first, second) — present, absent, non-adjacent, out of range —
// exactly like the map keyed by traj.PairKey that it replaced, rebuilt
// here from the same observations.
func TestPairIndexMatchesPairMap(t *testing.T) {
	e := getEnv(t)
	const minPairObs = 12 // as getEnv builds the knowledge base
	want := make(map[traj.PairKey]PairStats)
	for k, list := range e.obs.Pairs {
		if len(list) < minPairObs {
			continue
		}
		ps := PairStats{Count: len(list), MI: e.obs.PairMutualInformation(k, 3)}
		if corr, err := e.obs.PairCorrelation(k); err == nil {
			ps.Corr = corr
		}
		want[k] = ps
	}
	if len(want) == 0 || e.kb.NumPairs() != len(want) {
		t.Fatalf("NumPairs = %d, want %d (> 0)", e.kb.NumPairs(), len(want))
	}
	n := graph.EdgeID(e.g.NumEdges())
	for first := graph.EdgeID(-1); first <= n; first++ {
		for second := graph.EdgeID(-1); second <= n; second++ {
			got, ok := e.kb.Pair(first, second)
			exp, expOK := want[traj.PairKey{First: first, Second: second}]
			if ok != expOK || got != exp {
				t.Fatalf("Pair(%d,%d) = %+v,%v; map has %+v,%v", first, second, got, ok, exp, expOK)
			}
		}
	}
}

func TestPairWithoutDataConvolves(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	// Find an adjacent pair that is NOT in the knowledge base.
	for _, pair := range e.g.EdgePairs(true) {
		if _, ok := e.kb.Pair(pair.First, pair.Second); ok {
			continue
		}
		if m.ShouldEstimate(pair.First, pair.Second) {
			t.Error("pair without data must convolve")
		}
		return
	}
	t.Skip("every pair has data")
}

func TestPathCostMatchesManualIteration(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	// Build a 4-edge contiguous path.
	var path []graph.EdgeID
	cur := graph.VertexID(e.g.NumVertices() / 2)
	prev := graph.NoVertex
	for len(path) < 4 {
		outs := e.g.Out(cur)
		advanced := false
		for _, edge := range outs {
			if e.g.Edge(edge).To != prev {
				path = append(path, edge)
				prev = cur
				cur = e.g.Edge(edge).To
				advanced = true
				break
			}
		}
		if !advanced {
			t.Skip("dead end while building path")
		}
	}
	got, err := PathCost(m, path)
	if err != nil {
		t.Fatal(err)
	}
	manual := m.InitialHist(path[0])
	for i := 1; i < len(path); i++ {
		manual = m.Extend(manual, path[i-1], path[i])
	}
	tv, err := hist.TotalVariation(got, manual)
	if err != nil {
		t.Fatal(err)
	}
	if tv > 1e-12 {
		t.Errorf("PathCost differs from manual iteration by TV %v", tv)
	}
	if _, err := PathCost(m, nil); err == nil {
		t.Error("empty path should error")
	}
}

func TestPairSumEstimateAdjacencyError(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	e1 := graph.EdgeID(0)
	for id := 1; id < e.g.NumEdges(); id++ {
		e2 := graph.EdgeID(id)
		if e.g.Edge(e2).From != e.g.Edge(e1).To {
			if _, err := m.PairSumEstimate(e1, e2); err == nil {
				t.Error("non-adjacent pair should error")
			}
			return
		}
	}
}

func TestConvolutionCoster(t *testing.T) {
	e := getEnv(t)
	c := &ConvolutionCoster{KB: e.kb, MaxBuckets: 64}
	h := c.InitialHist(0)
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	var next graph.EdgeID = graph.NoEdge
	for _, cand := range e.g.Out(e.g.Edge(0).To) {
		next = cand
		break
	}
	if next == graph.NoEdge {
		t.Skip("no outgoing edge")
	}
	out := c.Extend(h, 0, next)
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(out.P) > 64 {
		t.Errorf("MaxBuckets not applied: %d", len(out.P))
	}
	if c.Width() != e.kb.Width {
		t.Error("width mismatch")
	}
}

func TestModelPersistRoundTrip(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	set, err := ReadModelSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := set.At(0)
	if err := got.AttachKB(e.kb); err != nil {
		t.Fatal(err)
	}
	got.MaxBuckets = m.MaxBuckets
	// The loaded model must reproduce the original's distributions.
	pairs := e.obs.PairsWithSupport(20)
	for _, k := range pairs[:min(len(pairs), 20)] {
		a, err := m.PairSumEstimate(k.First, k.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, err := got.PairSumEstimate(k.First, k.Second)
		if err != nil {
			t.Fatal(err)
		}
		tv, err := hist.TotalVariation(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if tv > 1e-12 {
			t.Fatalf("loaded model differs on pair %v by TV %v", k, tv)
		}
	}
}

func TestModelPersistErrors(t *testing.T) {
	if err := WriteModelSet(&bytes.Buffer{}, SingleModelSet(&Model{})); err == nil {
		t.Error("incomplete model should error")
	}
	if _, err := ReadModelSet(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic should error")
	}
	m, _ := getModel(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadModelSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	wrongKB := &KnowledgeBase{Width: 999}
	if err := loaded.At(0).AttachKB(wrongKB); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestTrainErrorsOnTooFewPairs(t *testing.T) {
	e := getEnv(t)
	cfg := smallTrainConfig()
	cfg.MinPairObs = 1 << 30 // nothing qualifies
	if _, _, err := Train(e.kb, e.obs, nil, nil, cfg); err == nil {
		t.Error("no qualifying pairs should error")
	}
	cfg = smallTrainConfig()
	cfg.Width = 999 // disagrees with kb
	if _, _, err := Train(e.kb, e.obs, nil, nil, cfg); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestEvaluateEmpiricalGroundTruth(t *testing.T) {
	// Without an oracle, evaluation falls back to empirical pair sums.
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(25)
	if len(pairs) < 10 {
		t.Skip("not enough pairs")
	}
	rep, err := Evaluate(m, e.obs, nil, pairs[:10], 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TestPairs != 10 {
		t.Errorf("TestPairs = %d", rep.TestPairs)
	}
	if rep.MeanKLHybrid < 0 || rep.MeanKLConv < 0 {
		t.Error("negative KL")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

package ingest

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// fakeTarget is a minimal serving engine: a graph, per-slice swappable
// knowledge bases, and an epoch counter. slices <= 1 models the
// classic time-homogeneous target.
type fakeTarget struct {
	g      *graph.Graph
	slices int

	mu         sync.Mutex
	kb         map[int]*hybrid.KnowledgeBase // by slice; nil entries fall back to kb[0]
	epoch      uint64
	swapped    *hybrid.Model
	swappedObs *traj.ObservationStore // the store the last swapped model was trained on
	swapSlices []int                  // slice of every SwapSliceModel call, in order
	// refuse, when it names a slice, fails that slice's swaps.
	refuse map[int]error
	// beforeGraph, when set, runs at the top of every Graph call — a
	// rebuild's first call into the target, so a test can hold one
	// there.
	beforeGraph func()
}

func (t *fakeTarget) Graph() *graph.Graph {
	t.mu.Lock()
	hook := t.beforeGraph
	t.mu.Unlock()
	if hook != nil {
		hook()
	}
	return t.g
}

func (t *fakeTarget) NumSlices() int {
	if t.slices < 2 {
		return 1
	}
	return t.slices
}

func (t *fakeTarget) SliceKnowledgeBase(slice int) *hybrid.KnowledgeBase {
	t.mu.Lock()
	defer t.mu.Unlock()
	if kb, ok := t.kb[slice]; ok {
		return kb
	}
	return t.kb[0]
}

func (t *fakeTarget) ModelEpoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

func (t *fakeTarget) SwapSliceModel(slice int, m *hybrid.Model, obs *traj.ObservationStore) (uint64, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.refuse[slice]; err != nil {
		return 0, err
	}
	if t.kb == nil {
		t.kb = make(map[int]*hybrid.KnowledgeBase)
	}
	t.kb[slice] = m.KB
	t.swapped, t.swappedObs = m, obs
	t.swapSlices = append(t.swapSlices, slice)
	t.epoch++
	return t.epoch, nil
}

type fixture struct {
	g     *graph.Graph
	world *traj.World
	trajs []traj.Trajectory
	obs   *traj.ObservationStore
	kb    *hybrid.KnowledgeBase
	width float64
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func testFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		cfg := netgen.DefaultConfig()
		cfg.Rows, cfg.Cols = 8, 8
		cfg.CellMeters = 150
		g, err := netgen.Generate(cfg)
		if err != nil {
			fixErr = err
			return
		}
		wcfg := traj.DefaultWorldConfig()
		wcfg.NoiseProb = 0
		world, err := traj.NewWorld(g, wcfg)
		if err != nil {
			fixErr = err
			return
		}
		trs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
			NumTrajectories: 700, MinEdges: 4, MaxEdges: 12, Seed: 11,
		})
		if err != nil {
			fixErr = err
			return
		}
		obs := traj.NewObservationStore(g, wcfg.BucketWidth)
		obs.Collect(trs)
		kb, err := hybrid.BuildKnowledgeBase(g, obs, wcfg.BucketWidth, 6)
		if err != nil {
			fixErr = err
			return
		}
		fix = &fixture{g: g, world: world, trajs: trs, obs: obs, kb: kb, width: wcfg.BucketWidth}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

// lightHybridConfig is a retraining config small enough for tests.
func lightHybridConfig(width float64) hybrid.Config {
	cfg := hybrid.DefaultConfig()
	cfg.Width = width
	cfg.MinPairObs = 6
	cfg.TrainPairs, cfg.TestPairs = 120, 30
	cfg.Estimator.Train.Epochs = 6
	cfg.PrefixRows = 0
	return cfg
}

// shifted returns copies of trs with every travel time scaled by f —
// the "traffic got worse everywhere" drift scenario. Departures are
// preserved.
func shifted(trs []traj.Trajectory, f float64) []traj.Trajectory {
	out := make([]traj.Trajectory, len(trs))
	for i, tr := range trs {
		times := make([]float64, len(tr.Times))
		for j, x := range tr.Times {
			times[j] = x * f
		}
		out[i] = traj.Trajectory{Edges: tr.Edges, Times: times, Departure: tr.Departure}
	}
	return out
}

// departingIn stamps every trajectory with a departure in the middle
// of slice s of a k-slice day.
func departingIn(trs []traj.Trajectory, s, k int) []traj.Trajectory {
	out := append([]traj.Trajectory(nil), trs...)
	for i := range out {
		out[i].Departure = traj.SliceMid(s, k)
	}
	return out
}

// edgeCount is Σ len(tr.Edges): what Status().EdgeObservations must
// read for an aggregate holding exactly trs.
func edgeCount(trs []traj.Trajectory) (n int) {
	for i := range trs {
		n += len(trs[i].Edges)
	}
	return n
}

// requireTotalsFromSlices: every Status scalar with a per-slice
// counterpart is that column's sum, maximum or disjunction.
func requireTotalsFromSlices(t *testing.T, st Status) {
	t.Helper()
	var want Status
	for _, sl := range st.Slices {
		want.Trajectories += sl.Trajectories
		want.SinceRebuild = max(want.SinceRebuild, sl.SinceRebuild)
		want.Rebuilding = want.Rebuilding || sl.Rebuilding
		want.Rebuilds += sl.Rebuilds
		want.DriftEvents += sl.DriftEvents
		want.LastSwapUnixMS = max(want.LastSwapUnixMS, sl.LastSwapUnixMS)
		want.Degraded = want.Degraded || sl.DriftPending
	}
	if st.Trajectories != want.Trajectories || st.SinceRebuild != want.SinceRebuild ||
		st.Rebuilding != want.Rebuilding || st.Rebuilds != want.Rebuilds ||
		st.DriftEvents != want.DriftEvents || st.LastSwapUnixMS != want.LastSwapUnixMS ||
		st.Degraded != want.Degraded {
		t.Errorf("status totals %+v are not derived from its slices (want %+v)", st, want)
	}
}

func TestIngestValidation(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid: lightHybridConfig(fx.width),
		Drift:  DriftConfig{Window: -1},
	}, nil)

	good := fx.trajs[0]
	bad := []traj.Trajectory{
		{}, // empty
		{Edges: good.Edges, Times: good.Times[:1]},                                      // length mismatch
		{Edges: []graph.EdgeID{graph.EdgeID(fx.g.NumEdges() + 5)}, Times: []float64{3}}, // unknown edge
		{Edges: []graph.EdgeID{-1}, Times: []float64{3}},                                // negative edge
		{Edges: good.Edges, Times: negateFirst(good.Times)},                             // negative time
		{Edges: good.Edges, Times: nanFirst(good.Times)},                                // NaN time
		{Edges: good.Edges[:1], Times: []float64{math.Inf(1)}},                          // infinite time
		{Edges: good.Edges[:1], Times: []float64{traj.MaxTravelTime * 2}},               // time past the day
		{Edges: good.Edges[:1], Times: []float64{1e10}},                                 // step past the int32 grid
		discontinuous(fx.g, good),                                                       // broken hop
	}
	accepted, rejected := in.Ingest(append([]traj.Trajectory{good}, bad...))
	if accepted != 1 || rejected != len(bad) {
		t.Fatalf("accepted %d rejected %d, want 1 and %d", accepted, rejected, len(bad))
	}
	st := in.Status()
	if st.Accepted != 1 || st.Rejected != uint64(len(bad)) {
		t.Errorf("status counters = %+v", st)
	}
	if st.Trajectories != 1 || st.EdgeObservations != len(good.Edges) {
		t.Errorf("aggregate = %d trajectories / %d observations, want 1 / %d",
			st.Trajectories, st.EdgeObservations, len(good.Edges))
	}
}

func negateFirst(times []float64) []float64 {
	out := append([]float64(nil), times...)
	out[0] = -out[0]
	return out
}

func nanFirst(times []float64) []float64 {
	out := append([]float64(nil), times...)
	out[0] = math.NaN()
	return out
}

// discontinuous breaks the first hop of a copy of tr by replacing its
// second edge with one that does not start where the first ends.
func discontinuous(g *graph.Graph, tr traj.Trajectory) traj.Trajectory {
	edges := append([]graph.EdgeID(nil), tr.Edges...)
	first := g.Edge(edges[0])
	for e := 0; e < g.NumEdges(); e++ {
		if g.Edge(graph.EdgeID(e)).From != first.To {
			edges[1] = graph.EdgeID(e)
			break
		}
	}
	return traj.Trajectory{Edges: edges, Times: tr.Times}
}

// TestIngestAggregateMatchesCollect: folding batches through Ingest
// must size the aggregate exactly as one Collect of the whole would.
func TestIngestAggregateMatchesCollect(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid: lightHybridConfig(fx.width),
		Drift:  DriftConfig{Window: -1},
	}, nil)

	trs := fx.trajs[:100]
	for lo := 0; lo < len(trs); lo += 13 {
		hi := lo + 13
		if hi > len(trs) {
			hi = len(trs)
		}
		in.Ingest(trs[lo:hi])
	}
	st := in.Status()
	if st.EdgeObservations != edgeCount(trs) {
		t.Errorf("aggregate has %d edge observations, want %d", st.EdgeObservations, edgeCount(trs))
	}
	if st.Trajectories != len(trs) {
		t.Errorf("aggregate has %d trajectories, want %d", st.Trajectories, len(trs))
	}
}

// TestDriftMonitor: a window drawn from the serving distribution must
// not fire; the same window with doubled travel times must.
func TestDriftMonitor(t *testing.T) {
	fx := testFixture(t)

	m := NewDriftMonitor(DriftConfig{Window: 150}, fx.width)
	for i := range fx.trajs[:150] {
		m.Observe(&fx.trajs[i])
	}
	if !m.Ready() {
		t.Fatal("window should be full")
	}
	rep := m.Evaluate(fx.kb)
	if rep.Checked == 0 {
		t.Fatal("baseline window compared no edges")
	}
	if rep.Fired {
		t.Errorf("baseline window fired: %+v", rep)
	}
	if m.Ready() {
		t.Error("Evaluate should reset the window")
	}

	shift := shifted(fx.trajs[:150], 2)
	for i := range shift {
		m.Observe(&shift[i])
	}
	rep = m.Evaluate(fx.kb)
	if !rep.Fired {
		t.Errorf("shifted window did not fire: %+v", rep)
	}
	if rep.Score <= 0.5 {
		t.Errorf("shifted window score %v, want > 0.5", rep.Score)
	}
}

// TestDriftMonitorDeterministic: one window always gets one report, bit
// for bit, however often it is scored — the per-edge divergences are
// summed in edge order.
func TestDriftMonitorDeterministic(t *testing.T) {
	fx := testFixture(t)
	window := shifted(fx.trajs[300:700], 1.5)
	var first DriftReport
	for i := 0; i < 50; i++ {
		m := NewDriftMonitor(DriftConfig{Window: len(window)}, fx.width)
		for j := range window {
			m.Observe(&window[j])
		}
		rep := m.Evaluate(fx.kb)
		if i == 0 {
			if first = rep; rep.Checked < 20 {
				t.Fatalf("the window compares only %d edges", rep.Checked)
			}
			continue
		}
		if rep.Checked != first.Checked || rep.Drifted != first.Drifted || rep.Fired != first.Fired ||
			math.Float64bits(rep.Score) != math.Float64bits(first.Score) ||
			math.Float64bits(rep.MaxDivergence) != math.Float64bits(first.MaxDivergence) ||
			math.Float64bits(rep.MeanDivergence) != math.Float64bits(first.MeanDivergence) {
			t.Fatalf("evaluation %d of the same window: %+v, first %+v", i, rep, first)
		}
	}
}

// busiestEdge returns the edge with the most observations in obs.
func busiestEdge(obs *traj.ObservationStore) graph.EdgeID {
	var busiest graph.EdgeID = -1
	most := 0
	for e, counts := range obs.Edges() {
		if n := counts.Total(); n > most {
			busiest, most = e, n
		}
	}
	return busiest
}

// TestRebuildAndHotSwap is the subsystem's core loop: stream shifted
// trajectories, watch the drift trigger fire, and verify the
// background rebuild trains a model on the new data and swaps it in
// with a bumped epoch.
func TestRebuildAndHotSwap(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid: lightHybridConfig(fx.width),
		Drift: DriftConfig{
			Window:     200,
			MinEdgeObs: 6,
		},
		MinRebuildTrajectories: 150,
	}, nil)

	shift := shifted(fx.trajs, 2)
	for lo := 0; lo < 500; lo += 50 {
		in.Ingest(shift[lo : lo+50])
	}
	in.WaitRebuilds()

	st := in.Status()
	if st.DriftEvents == 0 {
		t.Fatalf("drift never fired: %+v", st)
	}
	if st.Rebuilds == 0 {
		t.Fatalf("no successful rebuild: %+v (rebuild errors: %d)", st, st.RebuildErrors)
	}
	if tgt.ModelEpoch() < 2 {
		t.Fatalf("model epoch = %d, want >= 2", tgt.ModelEpoch())
	}
	if st.LastSwapUnixMS == 0 {
		t.Error("last swap timestamp not recorded")
	}

	// The rebuilt knowledge base must reflect the doubled travel
	// times: pick a well-observed edge and compare marginal means.
	newKB := tgt.SliceKnowledgeBase(0)
	busiest := busiestEdge(fx.obs)
	oldMean := fx.kb.Edge(busiest).Marginal.Mean()
	newMean := newKB.Edge(busiest).Marginal.Mean()
	if newMean < oldMean*1.5 {
		t.Errorf("rebuilt marginal mean %v not reflecting 2x shift from %v", newMean, oldMean)
	}
}

// TestNoRebuildBelowMinimum: triggers must not fire a rebuild before
// the aggregate is big enough to train on.
func TestNoRebuildBelowMinimum(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1, RebuildEvery: 10},
		MinRebuildTrajectories: 1 << 30,
	}, nil)
	in.Ingest(shifted(fx.trajs[:60], 2))
	in.WaitRebuilds()
	st := in.Status()
	if st.Rebuilds != 0 || st.RebuildErrors != 0 || st.Rebuilding {
		t.Errorf("rebuild ran below the aggregate minimum: %+v", st)
	}
	if tgt.ModelEpoch() != 1 {
		t.Errorf("epoch moved to %d", tgt.ModelEpoch())
	}
}

// TestSeedCountersAndAggregateBound: seeded baseline must not count as
// live ingestion, and the aggregate must age out its oldest half once
// it exceeds MaxTrajectories.
func TestSeedCountersAndAggregateBound(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1},
		MinRebuildTrajectories: 1 << 30,
		MaxTrajectories:        100,
	}, nil)

	if accepted, rejected := in.Seed(fx.trajs[:50]); accepted != 50 || rejected != 0 {
		t.Fatalf("Seed = %d/%d", accepted, rejected)
	}
	st := in.Status()
	if st.Seeded != 50 || st.Accepted != 0 || st.Trajectories != 50 || st.EdgeObservations != edgeCount(fx.trajs[:50]) {
		t.Errorf("after seed: %+v", st)
	}

	in.Ingest(fx.trajs[50:150]) // 150 total exceeds the bound of 100
	st = in.Status()
	if st.AggregatePrunes == 0 {
		t.Fatalf("aggregate never pruned: %+v", st)
	}
	if st.Trajectories != 50 { // prune retains MaxTrajectories/2
		t.Errorf("retained %d trajectories, want 50", st.Trajectories)
	}
	if st.Accepted != 100 || st.Seeded != 50 {
		t.Errorf("counters after prune: %+v", st)
	}
	if want := edgeCount(fx.trajs[100:150]); st.EdgeObservations != want {
		t.Errorf("aggregate has %d observations, want %d (retained tail only)", st.EdgeObservations, want)
	}
}

// TestRebuildTrainsOnTheAggregateAtItsTrigger: a rebuild triggered at
// trajectory n trains on exactly the first n of its slice, however
// much is ingested — and aged out — before it gets to collect them.
func TestRebuildTrainsOnTheAggregateAtItsTrigger(t *testing.T) {
	fx := testFixture(t)
	const n = 200
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1, RebuildEvery: n},
		MinRebuildTrajectories: n,
		MaxTrajectories:        300,
	}, nil)

	// Hold the rebuild at its first call into the target: the second
	// Graph call (the first is the triggering Ingest's own).
	held, release := make(chan struct{}), make(chan struct{})
	calls := 0
	tgt.beforeGraph = func() {
		tgt.mu.Lock()
		calls++
		second := calls == 2
		tgt.mu.Unlock()
		if second {
			close(held)
			<-release
		}
	}
	in.Ingest(fx.trajs[:n])
	<-held
	for lo := n; lo < 550; lo += 50 { // 350 pending cross MaxTrajectories: all but the newest 150 age out
		in.Ingest(fx.trajs[lo : lo+50])
	}
	st := in.Status()
	if st.AggregatePrunes != 1 || st.Trajectories != 150 || st.EdgeObservations != edgeCount(fx.trajs[400:550]) || !st.Rebuilding {
		t.Fatalf("while the rebuild is held: %+v", st)
	}
	close(release)
	in.WaitRebuilds()

	// The age-out happened during the fold: the fold is trained on but
	// not published, so the aggregate is still the newest 150.
	if st := in.Status(); st.Rebuilds != 1 || st.RebuildErrors != 0 || st.Rebuilding || st.Trajectories != 150 {
		t.Fatalf("after the rebuild: %+v", st)
	}
	want := traj.NewObservationStore(fx.g, fx.width)
	want.Collect(fx.trajs[:n])
	got := tgt.swappedObs
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rebuild trained on %d edge observations, %d pairs; the first %d trajectories hold %d, %d",
			got.NumEdgeObservations(), len(got.PairsWithSupport(1)),
			n, want.NumEdgeObservations(), len(want.PairsWithSupport(1)))
	}
}

// TestPerSliceDriftRebuild: on a 4-slice target, a congested stream
// departing exclusively in one slice must fire drift, rebuild and
// hot-swap THAT slice only — the other slices' monitors stay quiet and
// their models are never touched.
func TestPerSliceDriftRebuild(t *testing.T) {
	fx := testFixture(t)
	const K, peak = 4, 2
	tgt := &fakeTarget{g: fx.g, slices: K, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid: lightHybridConfig(fx.width),
		Drift: DriftConfig{
			Window:     200,
			MinEdgeObs: 6,
		},
		MinRebuildTrajectories: 150,
	}, nil)
	if in.NumSlices() != K {
		t.Fatalf("ingestor has %d slices, want %d", in.NumSlices(), K)
	}

	// Background off-peak traffic in slice 0 drawn from the SERVING
	// distribution: it must never trigger anything.
	in.Ingest(departingIn(fx.trajs[:100], 0, K))

	// The congested stream: doubled travel times, all departing in the
	// peak slice.
	stream := departingIn(shifted(fx.trajs, 2), peak, K)
	for lo := 0; lo+50 <= 500; lo += 50 {
		in.Ingest(stream[lo : lo+50])
	}
	in.WaitRebuilds()

	st := in.Status()
	requireTotalsFromSlices(t, st)
	if st.DriftEvents == 0 || st.Rebuilds == 0 {
		t.Fatalf("peak slice never rebuilt: %+v", st)
	}
	if len(st.Slices) != K {
		t.Fatalf("status has %d slices", len(st.Slices))
	}
	for s := 0; s < K; s++ {
		if s == peak {
			if st.Slices[s].DriftEvents == 0 || st.Slices[s].Rebuilds == 0 {
				t.Errorf("peak slice %d: %+v, want drift + rebuild", s, st.Slices[s])
			}
			if st.Slices[s].LastSwapUnixMS == 0 {
				t.Errorf("peak slice %d has no swap timestamp", s)
			}
		} else if st.Slices[s].DriftEvents != 0 || st.Slices[s].Rebuilds != 0 {
			t.Errorf("quiet slice %d fired: %+v", s, st.Slices[s])
		}
	}
	tgt.mu.Lock()
	swaps := append([]int(nil), tgt.swapSlices...)
	tgt.mu.Unlock()
	if len(swaps) == 0 {
		t.Fatal("no slice swap reached the target")
	}
	for _, s := range swaps {
		if s != peak {
			t.Errorf("swap hit slice %d, want only %d", s, peak)
		}
	}

	// The peak slice's rebuilt knowledge base reflects the doubled
	// times; slice 0 still serves the original.
	busiest := busiestEdge(fx.obs)
	oldMean := fx.kb.Edge(busiest).Marginal.Mean()
	if newMean := tgt.SliceKnowledgeBase(peak).Edge(busiest).Marginal.Mean(); newMean < oldMean*1.5 {
		t.Errorf("peak slice marginal mean %v does not reflect the 2x shift from %v", newMean, oldMean)
	}
	if tgt.SliceKnowledgeBase(0) != fx.kb {
		t.Error("slice 0's knowledge base must be untouched")
	}
}

// modelBytes serialises m as a one-slice model set.
func modelBytes(t *testing.T, m *hybrid.Model) []byte {
	t.Helper()
	set, err := hybrid.NewModelSet([]*hybrid.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hybrid.WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// collectAll is one Collect of trs onto a fresh store.
func collectAll(fx *fixture, trs []traj.Trajectory) *traj.ObservationStore {
	store := traj.NewObservationStore(fx.g, fx.width)
	store.Collect(trs)
	return store
}

// TestRebuiltModelsMatchTrainingOnEverything: a rebuild folds only its
// batch, yet with PrefixRows 0 — or while the slice holds no more than
// PrefixRows trajectories, so the prefix sample is every trajectory in
// arrival order — each model it swaps in serialises to the bytes of
// hybrid.Train over one Collect of everything ingested so far, which is
// what a rebuild that re-collected the whole aggregate trained.
func TestRebuiltModelsMatchTrainingOnEverything(t *testing.T) {
	fx := testFixture(t)
	for _, tc := range []struct{ prefixRows, n int }{{0, 600}, {450, 450}} {
		cfg := lightHybridConfig(fx.width)
		cfg.PrefixRows = tc.prefixRows
		tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
		in := New(tgt, Config{
			Hybrid:                 cfg,
			Drift:                  DriftConfig{Window: -1, RebuildEvery: 50},
			MinRebuildTrajectories: 200,
		}, nil)
		in.Seed(fx.trajs[:150])
		for _, hi := range []int{200, 250, 350, 450, 600} {
			if hi > tc.n {
				break
			}
			in.Ingest(fx.trajs[in.Status().Trajectories:hi])
			in.WaitRebuilds()
			all := fx.trajs[:hi]
			want := collectAll(fx, all)
			kb, err := hybrid.BuildKnowledgeBase(fx.g, want, cfg.Width, cfg.MinPairObs)
			if err != nil {
				t.Fatal(err)
			}
			model, _, err := hybrid.Train(kb, want, all, nil, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if st := in.Status(); st.Rebuilds == 0 || st.RebuildErrors != 0 {
				t.Fatalf("PrefixRows %d, %d trajectories: %+v", tc.prefixRows, hi, st)
			}
			if !reflect.DeepEqual(tgt.swappedObs, want) {
				t.Fatalf("PrefixRows %d, %d trajectories: the swapped store is not one Collect of them", tc.prefixRows, hi)
			}
			if !bytes.Equal(modelBytes(t, tgt.swapped), modelBytes(t, model)) {
				t.Fatalf("PrefixRows %d, %d trajectories: the swapped model differs from training on all of them", tc.prefixRows, hi)
			}
		}
	}
}

// TestPrefixSampleIgnoresBatchesAndTiming: the prefix sample a slice's
// counts carry is the reservoir of the trajectories those counts hold,
// offered in arrival order, however the stream was cut into batches,
// whenever the rebuilds ran and on however many cores.
func TestPrefixSampleIgnoresBatchesAndTiming(t *testing.T) {
	fx := testFixture(t)
	stream := fx.trajs[:601]
	const size = 120
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		procs, batch int
		wait         bool // for each rebuild before the next batch
	}{{1, 50, true}, {4, 13, false}, {2, 170, false}, {1, 7, false}, {4, 600, true}} {
		runtime.GOMAXPROCS(tc.procs)
		cfg := lightHybridConfig(fx.width)
		cfg.PrefixRows = size
		tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
		in := New(tgt, Config{
			Hybrid:                 cfg,
			Drift:                  DriftConfig{Window: -1, RebuildEvery: 1},
			MinRebuildTrajectories: 1,
		}, nil)
		for lo := 0; lo < 600; lo += tc.batch {
			in.Ingest(stream[lo:min(lo+tc.batch, 600)])
			if tc.wait {
				in.WaitRebuilds()
			}
		}
		// The last trajectory triggers a fold of whatever is pending.
		in.WaitRebuilds()
		in.Ingest(stream[600:])
		in.WaitRebuilds()
		in.mu.Lock()
		counted := in.aggs[0].counted
		in.mu.Unlock()
		if counted.trajs != len(stream) {
			t.Fatalf("%+v: the counts hold %d trajectories, want %d", tc, counted.trajs, len(stream))
		}
		want := in.empty.sample.offer(stream, size)
		if !reflect.DeepEqual(counted.sample, want) {
			t.Errorf("%+v: the sample differs from offering the stream in one batch", tc)
		}
		if len(want.items) != size || reflect.DeepEqual(want.items, stream[:size]) {
			t.Errorf("%+v: the sample holds %d trajectories, want %d not all among the first", tc, len(want.items), size)
		}
		if !reflect.DeepEqual(counted.store, collectAll(fx, stream)) {
			t.Errorf("%+v: the counts are not one Collect of the stream", tc)
		}
	}
}

// TestAgeOutKeepsTheNewest: folds onto a bounded slice never subtract,
// yet after every fold the aggregate holds at most MaxTrajectories, and
// they are the newest: its store is one Collect of the last
// Status().Trajectories trajectories ingested, and nothing older. How
// many it keeps follows the young store: started at the first fold past
// half the bound, taking over when a fold would pass the bound, and
// itself dropped when even it would.
func TestAgeOutKeepsTheNewest(t *testing.T) {
	fx := testFixture(t)
	const bound = 250
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1, RebuildEvery: 1},
		MinRebuildTrajectories: 1,
		MaxTrajectories:        bound,
	}, nil)
	hi := 0
	for _, step := range []struct{ batch, kept int }{
		{40, 40}, {90, 130}, {140, 140}, {60, 200}, {200, 200}, {30, 230}, {70, 100}, {70, 170},
	} {
		in.Ingest(fx.trajs[hi : hi+step.batch])
		hi += step.batch
		in.WaitRebuilds()
		st := in.Status()
		if st.Trajectories > bound || st.Trajectories != step.kept {
			t.Fatalf("after %d trajectories the aggregate holds %d, want %d (bound %d)", hi, st.Trajectories, step.kept, bound)
		}
		kept := fx.trajs[hi-st.Trajectories : hi]
		in.mu.Lock()
		counted := in.aggs[0].counted
		in.mu.Unlock()
		if counted.trajs != st.Trajectories || st.EdgeObservations != edgeCount(kept) ||
			!reflect.DeepEqual(counted.store, collectAll(fx, kept)) {
			t.Fatalf("after %d trajectories: the counts hold %d, want the newest %d", hi, counted.trajs, st.Trajectories)
		}
	}
	if st := in.Status(); st.AggregatePrunes != 3 {
		t.Errorf("%d age-outs, want 3", st.AggregatePrunes)
	}
}

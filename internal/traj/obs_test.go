package traj

import (
	"bytes"
	"slices"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/netgen"
)

func testObs(t *testing.T, w *World, nTraj int) *ObservationStore {
	t.Helper()
	trs, err := GenerateTrajectories(w, WalkConfig{
		NumTrajectories: nTraj, MinEdges: 4, MaxEdges: 15, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
	obs.Collect(trs)
	return obs
}

func TestCollectCounts(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 10, MinEdges: 5, MaxEdges: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	obs := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
	obs.Collect(trs)
	if got := obs.NumEdgeObservations(); got != 50 {
		t.Errorf("edge observations = %d, want 50", got)
	}
	pairObs := 0
	for _, list := range obs.Pairs {
		pairObs += len(list)
	}
	if pairObs != 40 { // 4 pairs per 5-edge trajectory
		t.Errorf("pair observations = %d, want 40", pairObs)
	}
}

func TestPairSumHistErrors(t *testing.T) {
	w := testWorld(t, nil)
	obs := NewObservationStore(w.Graph(), 2)
	if _, err := obs.PairSumHist(PairKey{0, 1}, 2); err == nil {
		t.Error("pair without observations should error")
	}
}

func TestPairsWithSupportSortedAndThresholded(t *testing.T) {
	w := testWorld(t, nil)
	obs := testObs(t, w, 1500)
	pairs := obs.PairsWithSupport(10)
	for i, k := range pairs {
		if len(obs.Pairs[k]) < 10 {
			t.Fatalf("pair %v has %d < 10 observations", k, len(obs.Pairs[k]))
		}
		if i > 0 {
			prev := pairs[i-1]
			if prev.First > k.First || (prev.First == k.First && prev.Second >= k.Second) {
				t.Fatal("pairs not sorted")
			}
		}
	}
	if len(obs.PairsWithSupport(1)) < len(pairs) {
		t.Error("lower threshold should never yield fewer pairs")
	}
}

func TestDependenceTestPower(t *testing.T) {
	w := testWorld(t, nil)
	obs := testObs(t, w, 4000)
	oracleDep, oracleInd := 0, 0
	detectedDep, falsePos := 0, 0
	for _, k := range obs.PairsWithSupport(30) {
		via := w.Graph().Edge(k.Second).From
		res, err := obs.DependenceTest(k, 3, 0.05)
		isDep := err == nil && res.Dependent(0.05)
		if w.PairIsDependent(via) {
			oracleDep++
			if isDep {
				detectedDep++
			}
		} else {
			oracleInd++
			if isDep {
				falsePos++
			}
		}
	}
	if oracleDep < 20 || oracleInd < 5 {
		t.Skipf("not enough labelled pairs: %d dep, %d ind", oracleDep, oracleInd)
	}
	power := float64(detectedDep) / float64(oracleDep)
	if power < 0.8 {
		t.Errorf("dependence test power %v < 0.8 (%d/%d)", power, detectedDep, oracleDep)
	}
	fpr := float64(falsePos) / float64(oracleInd)
	if fpr > 0.25 {
		t.Errorf("false positive rate %v > 0.25 (%d/%d)", fpr, falsePos, oracleInd)
	}
}

func TestPairCorrelationSign(t *testing.T) {
	w := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 1; c.Stickiness = 0.95 })
	obs := testObs(t, w, 2000)
	checked := 0
	for _, k := range obs.PairsWithSupport(50) {
		corr, err := obs.PairCorrelation(k)
		if err != nil {
			continue
		}
		if corr < 0.3 {
			t.Errorf("pair %v correlation %v, want strongly positive in sticky world", k, corr)
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Skip("no pairs with enough support")
	}
}

func TestPairMutualInformation(t *testing.T) {
	wDep := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 1; c.Stickiness = 0.95 })
	obsDep := testObs(t, wDep, 2000)
	wInd := testWorld(t, func(c *WorldConfig) { c.DependentVertexProb = 0 })
	obsInd := testObs(t, wInd, 2000)

	miDep, nDep := 0.0, 0
	for _, k := range obsDep.PairsWithSupport(50) {
		miDep += obsDep.PairMutualInformation(k, 3)
		nDep++
		if nDep >= 30 {
			break
		}
	}
	miInd, nInd := 0.0, 0
	for _, k := range obsInd.PairsWithSupport(50) {
		miInd += obsInd.PairMutualInformation(k, 3)
		nInd++
		if nInd >= 30 {
			break
		}
	}
	if nDep == 0 || nInd == 0 {
		t.Skip("insufficient support")
	}
	if miDep/float64(nDep) <= miInd/float64(nInd) {
		t.Errorf("dependent MI %v not above independent MI %v",
			miDep/float64(nDep), miInd/float64(nInd))
	}
}

func TestTrajectoryCodecRoundTrip(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 30, MinEdges: 4, MaxEdges: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrajectories(&buf, trs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrajectoryStream(&buf, w.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(trs) {
		t.Fatalf("round trip count %d != %d", len(got), len(trs))
	}
	for i := range trs {
		for j := range trs[i].Edges {
			if got[i].Edges[j] != trs[i].Edges[j] || got[i].Times[j] != trs[i].Times[j] {
				t.Fatalf("trajectory %d differs at %d", i, j)
			}
		}
	}
}

func TestTrajectoryCodecErrors(t *testing.T) {
	if _, err := ReadTrajectoryStream(bytes.NewReader([]byte("BAD!")), nil); err == nil {
		t.Error("bad magic should error")
	}
	if _, err := ReadTrajectoryStream(bytes.NewReader(nil), nil); err == nil {
		t.Error("empty input should error")
	}
	// Edge ID beyond the graph.
	var buf bytes.Buffer
	trs := []Trajectory{{Edges: []graph.EdgeID{99999}, Times: []float64{1}}}
	if err := WriteTrajectories(&buf, trs); err != nil {
		t.Fatal(err)
	}
	w := testWorld(t, nil)
	if _, err := ReadTrajectoryStream(&buf, w.Graph()); err == nil {
		t.Error("out-of-range edge should error on validated read")
	}
}

// appendCollect is the reference Collect is checked against: one plain
// append per sample, no counting pass, no shared storage.
func appendCollect(edge map[graph.EdgeID][]float64, pairs map[PairKey][]PairObs, trs []Trajectory) {
	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			edge[e] = append(edge[e], tr.Times[j])
			if j > 0 {
				k := PairKey{First: tr.Edges[j-1], Second: e}
				pairs[k] = append(pairs[k], PairObs{T1: tr.Times[j-1], T2: tr.Times[j]})
			}
		}
	}
}

func requireSameSamples(t *testing.T, s *ObservationStore, edge map[graph.EdgeID][]float64, pairs map[PairKey][]PairObs) {
	t.Helper()
	if len(s.Edge) != len(edge) || len(s.Pairs) != len(pairs) {
		t.Fatalf("store has %d edges, %d pairs; reference %d, %d", len(s.Edge), len(s.Pairs), len(edge), len(pairs))
	}
	for e, want := range edge {
		if !slices.Equal(s.Edge[e], want) {
			t.Fatalf("edge %d: samples %v, want %v", e, s.Edge[e], want)
		}
	}
	for k, want := range pairs {
		if !slices.Equal(s.Pairs[k], want) {
			t.Fatalf("pair %v: samples %v, want %v", k, s.Pairs[k], want)
		}
	}
}

// TestCollectMatchesAppendReference: the carved Collect holds the same
// keys with the same samples in the same order as one append per
// sample, on a fresh store and when a second Collect lands on keys the
// first one carved.
func TestCollectMatchesAppendReference(t *testing.T) {
	w := testWorld(t, nil)
	for _, seed := range []uint64{5, 9, 33} {
		trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 300, MinEdges: 1, MaxEdges: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		store := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
		edge, pairs := map[graph.EdgeID][]float64{}, map[PairKey][]PairObs{}
		for _, part := range [][]Trajectory{trs[:200], trs[200:], trs[:50]} {
			store.Collect(part)
			appendCollect(edge, pairs, part)
			requireSameSamples(t, store, edge, pairs)
		}
	}
}

// TestCollectKeysDoNotShareCapacity: every key's samples end at their
// own capacity, so appending to one key — what a later Collect does —
// never changes another key's samples although one block backs them
// all.
func TestCollectKeysDoNotShareCapacity(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 200, MinEdges: 2, MaxEdges: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	store := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
	store.Collect(trs)
	edge, pairs := map[graph.EdgeID][]float64{}, map[PairKey][]PairObs{}
	appendCollect(edge, pairs, trs)

	for e := range edge {
		if len(store.Edge[e]) != cap(store.Edge[e]) {
			t.Fatalf("edge %d: len %d, cap %d", e, len(store.Edge[e]), cap(store.Edge[e]))
		}
		store.Edge[e] = append(store.Edge[e], -1)
		edge[e] = append(edge[e], -1)
	}
	for k := range pairs {
		if len(store.Pairs[k]) != cap(store.Pairs[k]) {
			t.Fatalf("pair %v: len %d, cap %d", k, len(store.Pairs[k]), cap(store.Pairs[k]))
		}
		store.Pairs[k] = append(store.Pairs[k], PairObs{-1, -1})
		pairs[k] = append(pairs[k], PairObs{-1, -1})
	}
	requireSameSamples(t, store, edge, pairs)
}

// collectBenchInput is the city fixture's shape: 6 000 default walks on
// a 60 x 60 grid.
func collectBenchInput(tb testing.TB) (*graph.Graph, []Trajectory) {
	tb.Helper()
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 60, 60
	g, err := netgen.Generate(ncfg)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := NewWorld(g, DefaultWorldConfig())
	if err != nil {
		tb.Fatal(err)
	}
	walk := DefaultWalkConfig()
	walk.NumTrajectories = 6000
	trs, err := GenerateTrajectories(w, walk)
	if err != nil {
		tb.Fatal(err)
	}
	return g, trs
}

func BenchmarkCollect(b *testing.B) {
	g, trs := collectBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewObservationStore(g, 2).Collect(trs)
	}
}

// TestCollectAllocationCeiling: a Collect allocates per block and per
// map growth step, not per key (129 591 allocations for this input
// before the carve).
func TestCollectAllocationCeiling(t *testing.T) {
	g, trs := collectBenchInput(t)
	allocs := testing.AllocsPerRun(1, func() { NewObservationStore(g, 2).Collect(trs) })
	t.Logf("Collect of %d trajectories: %.0f allocations", len(trs), allocs)
	if allocs > 2000 {
		t.Errorf("Collect of %d trajectories made %.0f allocations, want <= 2000", len(trs), allocs)
	}
}

// TestClusterBucketerBoundaries: a value equal to a cut lands in the
// cluster below it, anything above lands in the next, and a single
// distinct value is one cluster.
func TestClusterBucketerBoundaries(t *testing.T) {
	// Width 2: gaps > 3 split, so {10, 12} | {20, 22} | {40}; the cuts
	// sit after 12 and after 22.
	bucket, n := clusterBucketer([]float64{10, 12, 20, 22, 40, 12, 22}, 3, 2)
	if n != 3 {
		t.Fatalf("clusters = %d, want 3", n)
	}
	for _, tc := range []struct {
		x    float64
		want int
	}{{10, 0}, {12, 0}, {12.5, 1}, {20, 1}, {22, 1}, {23, 2}, {40, 2}} {
		if got := bucket(tc.x); got != tc.want {
			t.Errorf("bucket(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	bucket, n = clusterBucketer([]float64{7, 7, 7}, 3, 2)
	if n != 1 || bucket(7) != 0 {
		t.Errorf("single distinct value: %d clusters, bucket(7) = %d; want 1, 0", n, bucket(7))
	}
}

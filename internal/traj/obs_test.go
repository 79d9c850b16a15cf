package traj

import (
	"bytes"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/stats"
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
	for _, k := range obs.PairsWithSupport(1) {
		pairObs += obs.Joint(k).Total()
	}
	if pairObs != 40 { // 4 pairs per 5-edge trajectory
		t.Errorf("pair observations = %d, want 40", pairObs)
	}
}

func TestPairSumHistErrors(t *testing.T) {
	w := testWorld(t, nil)
	obs := NewObservationStore(w.Graph(), 2)
	if _, err := obs.PairSumHist(PairKey{0, 1}); err == nil {
		t.Error("pair without observations should error")
	}
}

func TestPairsWithSupportSortedAndThresholded(t *testing.T) {
	w := testWorld(t, nil)
	obs := testObs(t, w, 1500)
	pairs := obs.PairsWithSupport(10)
	for i, k := range pairs {
		if n := obs.Joint(k).Total(); n < 10 {
			t.Fatalf("pair %v has %d < 10 observations", k, n)
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

// sampleLists is the reference Collect is checked against: every sample
// kept in a list, one plain append per observation.
type sampleLists struct {
	edge  map[graph.EdgeID][]float64
	pairs map[PairKey][][2]float64
}

func newSampleLists() *sampleLists {
	return &sampleLists{edge: map[graph.EdgeID][]float64{}, pairs: map[PairKey][][2]float64{}}
}

func (r *sampleLists) add(trs []Trajectory) {
	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			r.edge[e] = append(r.edge[e], tr.Times[j])
			if j > 0 {
				k := PairKey{First: tr.Edges[j-1], Second: e}
				r.pairs[k] = append(r.pairs[k], [2]float64{tr.Times[j-1], tr.Times[j]})
			}
		}
	}
}

func sameHistBits(a, b *hist.Hist) bool {
	if math.Float64bits(a.Min) != math.Float64bits(b.Min) || a.Width != b.Width || len(a.P) != len(b.P) {
		return false
	}
	for i := range a.P {
		if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	return true
}

// requireMatchesSamples: the store holds the binned counts of the
// reference's samples, and its histograms and correlations are the
// sample lists' — hist.FromSamples' bits, stats.Pearson within 1e-12.
func requireMatchesSamples(t *testing.T, s *ObservationStore, ref *sampleLists) {
	t.Helper()
	step := func(x float64) int { return int(math.Floor(x / s.Width)) }
	edges := 0
	for e, got := range s.Edges() {
		edges++
		samples := ref.edge[e]
		want := make(map[int]int32)
		for _, x := range samples {
			want[step(x)]++
		}
		for i, n := range got.Counts {
			if n != want[got.Lo+i] {
				t.Fatalf("edge %d: %d at step %d, samples have %d", e, n, got.Lo+i, want[got.Lo+i])
			}
			delete(want, got.Lo+i)
		}
		if len(want) > 0 || got.Counts[0] == 0 || got.Counts[len(got.Counts)-1] == 0 {
			t.Fatalf("edge %d: counts %+v do not span the samples' steps exactly", e, got)
		}
		fromSamples, err := hist.FromSamples(samples, s.Width)
		if err != nil {
			t.Fatal(err)
		}
		if h := got.Hist(s.Width); !sameHistBits(h, fromSamples) {
			t.Fatalf("edge %d: histogram %v, FromSamples %v", e, h, fromSamples)
		}
	}
	if edges != len(ref.edge) || s.NumEdgeObservations() != countSamples(ref.edge) {
		t.Fatalf("store has %d edges, %d observations; reference %d, %d", edges, s.NumEdgeObservations(), len(ref.edge), countSamples(ref.edge))
	}

	keys := s.PairsWithSupport(1)
	if len(keys) != len(ref.pairs) {
		t.Fatalf("store has %d pairs, reference %d", len(keys), len(ref.pairs))
	}
	for _, k := range keys {
		samples := ref.pairs[k]
		want := make(map[[2]int32]int32)
		var t1, t2, sums []float64
		for _, o := range samples {
			want[[2]int32{int32(step(o[0])), int32(step(o[1]))}]++
			t1, t2, sums = append(t1, o[0]), append(t2, o[1]), append(sums, o[0]+o[1])
		}
		cells := s.Joint(k)
		if len(cells) != len(want) || cells.Total() != len(samples) {
			t.Fatalf("pair %v: %d cells over %d observations, samples give %d over %d", k, len(cells), cells.Total(), len(want), len(samples))
		}
		for i, c := range cells {
			if c.N != want[[2]int32{c.I1, c.I2}] || (i > 0 && (cells[i-1].I1 > c.I1 || cells[i-1].I1 == c.I1 && cells[i-1].I2 >= c.I2)) {
				t.Fatalf("pair %v: cells %v, samples give %v (ascending)", k, cells, want)
			}
		}
		refSum, err := hist.FromSamples(sums, s.Width)
		if err != nil {
			t.Fatal(err)
		}
		if h, err := s.PairSumHist(k); err != nil || !sameHistBits(h, refSum) {
			t.Fatalf("pair %v: PairSumHist %v (%v), FromSamples %v", k, h, err, refSum)
		}
		refCorr, refErr := stats.Pearson(t1, t2)
		corr, err := s.PairCorrelation(k)
		if (err == nil) != (refErr == nil) || math.Abs(corr-refCorr) > 1e-12 {
			t.Fatalf("pair %v: correlation %v (%v), Pearson %v (%v)", k, corr, err, refCorr, refErr)
		}
	}
}

func countSamples(edge map[graph.EdgeID][]float64) (n int) {
	for _, v := range edge {
		n += len(v)
	}
	return n
}

// TestCollectMatchesAppendReference: the store is what sample lists
// built by one append per sample give, on a fresh store and when later
// Collects add to it.
func TestCollectMatchesAppendReference(t *testing.T) {
	w := testWorld(t, nil)
	for _, seed := range []uint64{5, 9, 33} {
		trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 300, MinEdges: 1, MaxEdges: 12, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		store := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
		ref := newSampleLists()
		for _, part := range [][]Trajectory{trs[:200], trs[200:], trs[:50]} {
			store.Collect(part)
			ref.add(part)
			requireMatchesSamples(t, store, ref)
		}
	}
}

// TestCollectFoldsOntoCopies: folding any split of a trajectory list
// through copy-and-Collect steps (next := *held; next.Collect(part))
// ends DeepEqual to one Collect of the whole, and Collect never writes
// into the arrays a copy shares: every store a step started from — read
// concurrently with the fold, which -race checks — still equals one
// Collect of its own prefix.
func TestCollectFoldsOntoCopies(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 300, MinEdges: 1, MaxEdges: 12, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	collect := func(part []Trajectory) *ObservationStore {
		s := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
		s.Collect(part)
		return s
	}
	r := rng.New(4)
	for round := 0; round < 12; round++ {
		cuts := []int{0, len(trs)}
		for k := r.Intn(6); k > 0; k-- {
			cuts = append(cuts, r.Intn(len(trs)+1))
		}
		slices.Sort(cuts)
		held := []*ObservationStore{collect(nil)}
		for i := 1; i < len(cuts); i++ {
			prev := held[i-1]
			read := make(chan int)
			go func() { read <- prev.NumEdgeObservations() + len(prev.PairsWithSupport(1)) }()
			next := *prev
			next.Collect(trs[cuts[i-1]:cuts[i]])
			<-read
			held = append(held, &next)
		}
		for i, s := range held {
			if !reflect.DeepEqual(s, collect(trs[:cuts[i]])) {
				t.Fatalf("round %d, cuts %v: the store after %d trajectories is not one Collect of them", round, cuts, cuts[i])
			}
		}
	}
}

// TestNewObservationStoreRejectsBadWidth: a store bins on its width, so
// a width that is not positive and finite, or so fine that the grid step
// of MaxTravelTime overflows an int32, is refused.
func TestNewObservationStoreRejectsBadWidth(t *testing.T) {
	g := testGraph(t)
	for _, width := range []float64{0, -2, math.NaN(), math.Inf(1), math.Inf(-1), 4e-5, 1e-6} {
		if CheckWidth(width) == nil {
			t.Errorf("CheckWidth(%v) accepted", width)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewObservationStore with width %v did not panic", width)
				}
			}()
			NewObservationStore(g, width)
		}()
	}
	if err := CheckWidth(0.5); err != nil {
		t.Errorf("CheckWidth(0.5) = %v", err)
	}
	// At the finest width allowed, the longest travel time still lands on
	// a grid step of its own.
	store := NewObservationStore(g, MaxTravelTime/math.MaxInt32*(1+1e-9))
	e := graph.EdgeID(0)
	store.Collect([]Trajectory{{Edges: []graph.EdgeID{e}, Times: []float64{MaxTravelTime}}})
	for id, c := range store.Edges() {
		if id != e || c.Lo < 0 || c.Total() != 1 {
			t.Errorf("edge %d counts at step %d, total %d", id, c.Lo, c.Total())
		}
	}
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

// BenchmarkCollect builds the city fixture's store. Beside the usual
// -benchmem columns it reports the heap bytes the store retains.
func BenchmarkCollect(b *testing.B) {
	g, trs := collectBenchInput(b)
	var store *ObservationStore
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	for b.Loop() {
		store = NewObservationStore(g, 2)
		store.Collect(trs)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "retained-B")
	// The input must outlive the second reading, or its release would
	// be subtracted from the store's size.
	runtime.KeepAlive(trs)
	runtime.KeepAlive(store)
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

// TestClusterBucketerBoundaries: a step equal to a cut lands in the
// cluster below it, anything above lands in the next, and a single
// distinct step is one cluster.
func TestClusterBucketerBoundaries(t *testing.T) {
	// Gaps of two or more steps split, so {5, 6} | {10, 11} | {20}; the
	// cuts sit after 6 and after 11.
	bucket, n := clusterBucketer([]int32{5, 6, 10, 11, 20}, 3)
	if n != 3 {
		t.Fatalf("clusters = %d, want 3", n)
	}
	for _, tc := range []struct {
		x    int32
		want int
	}{{5, 0}, {6, 0}, {7, 1}, {10, 1}, {11, 1}, {12, 2}, {20, 2}} {
		if got := bucket(tc.x); got != tc.want {
			t.Errorf("bucket(%v) = %d, want %d", tc.x, got, tc.want)
		}
	}
	// Two clusters at most: the wider gap (11 to 20) wins.
	if bucket, n = clusterBucketer([]int32{5, 6, 10, 11, 20}, 2); n != 2 || bucket(10) != 0 || bucket(20) != 1 {
		t.Errorf("two clusters: %d, bucket(10) = %d, bucket(20) = %d; want 2, 0, 1", n, bucket(10), bucket(20))
	}
	bucket, n = clusterBucketer([]int32{7}, 3)
	if n != 1 || bucket(7) != 0 {
		t.Errorf("single distinct step: %d clusters, bucket(7) = %d; want 1, 0", n, bucket(7))
	}
}

package traj

import (
	"bytes"
	"testing"

	"stochroute/internal/graph"
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

// TestMergeEquivalentToCollect: merging the per-batch deltas of any
// partition of a trajectory set must yield exactly the aggregate that
// one Collect over the whole set builds — the invariant the streaming
// ingest subsystem relies on.
func TestMergeEquivalentToCollect(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 60, MinEdges: 4, MaxEdges: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	width := w.cfg.BucketWidth
	whole := NewObservationStore(w.Graph(), width)
	whole.Collect(trs)

	merged := NewObservationStore(w.Graph(), width)
	for lo := 0; lo < len(trs); lo += 7 {
		hi := lo + 7
		if hi > len(trs) {
			hi = len(trs)
		}
		delta := NewObservationStore(w.Graph(), width)
		delta.Collect(trs[lo:hi])
		merged.Merge(delta)
	}

	if got, want := merged.NumEdgeObservations(), whole.NumEdgeObservations(); got != want {
		t.Fatalf("merged edge observations = %d, want %d", got, want)
	}
	if len(merged.Edge) != len(whole.Edge) || len(merged.Pairs) != len(whole.Pairs) {
		t.Fatalf("merged store shape (%d edges, %d pairs) != whole (%d, %d)",
			len(merged.Edge), len(merged.Pairs), len(whole.Edge), len(whole.Pairs))
	}
	// Batches arrive in order here, so even sample order must match.
	for e, want := range whole.Edge {
		got := merged.Edge[e]
		if len(got) != len(want) {
			t.Fatalf("edge %d: %d samples, want %d", e, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("edge %d sample %d: %v != %v", e, i, got[i], want[i])
			}
		}
	}
	for k, want := range whole.Pairs {
		got := merged.Pairs[k]
		if len(got) != len(want) {
			t.Fatalf("pair %v: %d obs, want %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pair %v obs %d: %v != %v", k, i, got[i], want[i])
			}
		}
	}
}

// TestSnapshotStableUnderLaterMerges: a snapshot must keep serving the
// counts it was taken at while the original absorbs further deltas.
func TestSnapshotStableUnderLaterMerges(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{NumTrajectories: 40, MinEdges: 4, MaxEdges: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	width := w.cfg.BucketWidth
	store := NewObservationStore(w.Graph(), width)
	store.Collect(trs[:20])
	snap := store.Snapshot()
	wantObs := snap.NumEdgeObservations()

	delta := NewObservationStore(w.Graph(), width)
	delta.Collect(trs[20:])
	store.Merge(delta)
	store.Collect(trs[:5]) // in-place appends into possibly shared arrays

	if got := snap.NumEdgeObservations(); got != wantObs {
		t.Errorf("snapshot grew from %d to %d observations after later merges", wantObs, got)
	}
	if store.NumEdgeObservations() <= wantObs {
		t.Errorf("original store did not grow past %d", wantObs)
	}
	if snap.g != store.g || snap.Width != store.Width {
		t.Error("snapshot lost graph/width identity")
	}
}

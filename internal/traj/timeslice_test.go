package traj

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
)

func TestSliceIndex(t *testing.T) {
	cases := []struct {
		depart float64
		k      int
		want   int
	}{
		{0, 1, 0},
		{50000, 1, 0},
		{0, 4, 0},
		{21599, 4, 0},
		{21600, 4, 1},
		{43200, 4, 2},
		{86399, 4, 3},
		{86400, 4, 0},         // wraps to midnight
		{86400 + 30000, 4, 1}, // wraps into the next day
		{-3600, 4, 3},         // negative wraps backwards
		{30000, 0, 0},         // k < 2 is the single slice
	}
	for _, c := range cases {
		if got := SliceIndex(c.depart, c.k); got != c.want {
			t.Errorf("SliceIndex(%v, %d) = %d, want %d", c.depart, c.k, got, c.want)
		}
	}
	// Slice boundaries tile the day exactly.
	for i := 0; i < 4; i++ {
		if got := SliceIndex(SliceStart(i, 4), 4); got != i {
			t.Errorf("slice start %d maps to %d", i, got)
		}
		if got := SliceIndex(SliceMid(i, 4), 4); got != i {
			t.Errorf("slice mid %d maps to %d", i, got)
		}
	}
}

func TestPeakedSlicePriors(t *testing.T) {
	base := []float64{0.55, 0.3, 0.15}
	priors, err := PeakedSlicePriors(base, 4, 1, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if len(priors) != 4 {
		t.Fatalf("got %d rows", len(priors))
	}
	for s, row := range priors {
		total := 0.0
		for _, p := range row {
			if p < 0 {
				t.Errorf("slice %d has negative prior %v", s, p)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-12 {
			t.Errorf("slice %d prior sums to %v", s, total)
		}
	}
	// Non-peak slices keep the base; the peak shifts mass to the last mode.
	for _, s := range []int{0, 2, 3} {
		for m := range base {
			if priors[s][m] != base[m] {
				t.Errorf("slice %d mode %d = %v, want base %v", s, m, priors[s][m], base[m])
			}
		}
	}
	if priors[1][2] <= base[2] {
		t.Errorf("peak slice congested mass %v not above base %v", priors[1][2], base[2])
	}
	if priors[1][0] >= base[0] {
		t.Errorf("peak slice free-flow mass %v not below base %v", priors[1][0], base[0])
	}
	if _, err := PeakedSlicePriors(base, 4, 7, 0.4); err == nil {
		t.Error("peak outside range should error")
	}
	if _, err := PeakedSlicePriors(base, 4, 1, 1.5); err == nil {
		t.Error("shift outside [0,1) should error")
	}
}

// TestSRT2RoundTripProperty: any valid trajectory set — random edge
// sequences, grid times and departures — survives a write/read cycle
// bit-identically, departures included.
func TestSRT2RoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 60; iter++ {
		n := rng.Intn(8)
		trs := make([]Trajectory, n)
		for i := range trs {
			m := 1 + rng.Intn(12)
			tr := Trajectory{
				Edges:     make([]graph.EdgeID, m),
				Times:     make([]float64, m),
				Departure: math.Floor(rng.Float64()*DaySeconds*100) / 100,
			}
			for j := 0; j < m; j++ {
				tr.Edges[j] = graph.EdgeID(rng.Intn(1 << 16))
				tr.Times[j] = float64(rng.Intn(4000)) / 2
			}
			trs[i] = tr
		}
		var buf bytes.Buffer
		if err := WriteTrajectories(&buf, trs); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(buf.Bytes(), []byte("SRT2")) {
			t.Fatal("writer must emit SRT2")
		}
		got, err := ReadTrajectoryStream(bytes.NewReader(buf.Bytes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(trs) {
			t.Fatalf("iter %d: count %d != %d", iter, len(got), len(trs))
		}
		for i := range trs {
			if got[i].Departure != trs[i].Departure {
				t.Fatalf("iter %d trajectory %d: departure %v != %v", iter, i, got[i].Departure, trs[i].Departure)
			}
			for j := range trs[i].Edges {
				if got[i].Edges[j] != trs[i].Edges[j] || got[i].Times[j] != trs[i].Times[j] {
					t.Fatalf("iter %d trajectory %d differs at hop %d", iter, i, j)
				}
			}
		}
	}
	// Invalid departures must be rejected on both sides.
	bad := []Trajectory{{Edges: []graph.EdgeID{1}, Times: []float64{2}, Departure: math.NaN()}}
	if err := WriteTrajectories(&bytes.Buffer{}, bad); err == nil {
		t.Error("NaN departure should fail to encode")
	}
}

// TestSlicedObservationsBucketsByDeparture: collecting a mixed-slice
// trajectory set must route every trip into its departure slice, with
// per-slice stores matching a manual split.
func TestSlicedObservationsBucketsByDeparture(t *testing.T) {
	w := testWorld(t, nil)
	trs, err := GenerateTrajectories(w, WalkConfig{
		NumTrajectories: 120, MinEdges: 4, MaxEdges: 10, Seed: 5, Slices: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for i := range trs {
		if trs[i].Departure > 0 {
			seen++
		}
	}
	if seen == 0 {
		t.Fatal("sliced generation never assigned a departure")
	}

	so := NewSlicedObservations(w.Graph(), w.cfg.BucketWidth, 4)
	so.Collect(trs)
	buckets := SplitBySlice(trs, 4)
	totalTrips := 0
	for s, bucket := range buckets {
		totalTrips += len(bucket)
		want := NewObservationStore(w.Graph(), w.cfg.BucketWidth)
		want.Collect(bucket)
		if got := so.Slice(s).NumEdgeObservations(); got != want.NumEdgeObservations() {
			t.Errorf("slice %d has %d observations, want %d", s, got, want.NumEdgeObservations())
		}
	}
	if totalTrips != len(trs) {
		t.Errorf("split lost trajectories: %d != %d", totalTrips, len(trs))
	}

	total := func() (n int) {
		for s := 0; s < so.K(); s++ {
			n += so.Slice(s).NumEdgeObservations()
		}
		return n
	}
	before := total()
	so.Collect(trs)
	if total() != 2*before {
		t.Errorf("double collect = %d observations, want %d", total(), 2*before)
	}
}

// TestSlicedCollectSameSamplesAcrossWorkers: the slices' stores fill
// concurrently, each from its own bucket in input order, so one worker
// and four leave every slice with the keys, samples and sample order of
// one append per sample over that slice's trajectories — on fresh stores
// and when a second Collect lands on them.
func TestSlicedCollectSameSamplesAcrossWorkers(t *testing.T) {
	w := testWorld(t, nil)
	const k = 4
	trs, err := GenerateTrajectories(w, WalkConfig{
		NumTrajectories: 600, MinEdges: 2, MaxEdges: 12, Seed: 7, Slices: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		so := NewSlicedObservations(w.Graph(), w.cfg.BucketWidth, k)
		edge, pairs := make([]map[graph.EdgeID][]float64, k), make([]map[PairKey][]PairObs, k)
		for s := range edge {
			edge[s], pairs[s] = map[graph.EdgeID][]float64{}, map[PairKey][]PairObs{}
		}
		for _, part := range [][]Trajectory{trs[:400], trs[400:]} {
			so.Collect(part)
			for s, bucket := range SplitBySlice(part, k) {
				appendCollect(edge[s], pairs[s], bucket)
				requireSameSamples(t, so.Slice(s), edge[s], pairs[s])
			}
		}
	}
}

// TestWorldSlicePriors: a peaked slice must shift the analytic edge
// marginal (and path truth) toward congestion, while slice 0 stays the
// classic time-homogeneous answer.
func TestWorldSlicePriors(t *testing.T) {
	w := testWorld(t, func(cfg *WorldConfig) {
		priors, err := PeakedSlicePriors(cfg.ModePrior, 4, 1, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SlicePriors = priors
	})
	if w.NumSlices() != 4 {
		t.Fatalf("NumSlices = %d, want 4", w.NumSlices())
	}

	e := graph.EdgeID(0)
	base := w.EdgeMarginal(e) // slice 0 == classic
	offPeak := w.EdgeMarginalAt(e, 0)
	peak := w.EdgeMarginalAt(e, 1)
	if tv, err := hist.TotalVariation(base, offPeak); err != nil || tv != 0 {
		t.Errorf("slice 0 marginal differs from classic by %v (%v)", tv, err)
	}
	if peak.Mean() <= offPeak.Mean() {
		t.Errorf("peak marginal mean %v not above off-peak %v", peak.Mean(), offPeak.Mean())
	}

	// A short path: the peak-slice truth must be slower too.
	var path []graph.EdgeID
	g := w.Graph()
	cur := g.Edge(e).To
	path = append(path, e)
	for len(path) < 3 {
		outs := g.Out(cur)
		if len(outs) == 0 {
			t.Skip("dead end")
		}
		path = append(path, outs[0])
		cur = g.Edge(outs[0]).To
	}
	basePT, err := w.PathTruth(path)
	if err != nil {
		t.Fatal(err)
	}
	peakPT, err := w.PathTruthAt(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if peakPT.Mean() <= basePT.Mean() {
		t.Errorf("peak path truth mean %v not above off-peak %v", peakPT.Mean(), basePT.Mean())
	}
}

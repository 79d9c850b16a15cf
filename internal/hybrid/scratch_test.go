package hybrid

import (
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/traj"
)

func distsBitEqual(t *testing.T, label string, a, b *hist.Hist) {
	t.Helper()
	if a.Min != b.Min || a.Width != b.Width || len(a.P) != len(b.P) {
		t.Fatalf("%s: shape mismatch: (%v,%v,%d) vs (%v,%v,%d)",
			label, a.Min, a.Width, len(a.P), b.Min, b.Width, len(b.P))
	}
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatalf("%s: P[%d] = %v vs %v (not bit-equal)", label, i, a.P[i], b.P[i])
		}
	}
}

// TestExtendIntoMatchesExtend pins the hybrid kernel to the heap
// reference (reference_test.go): bit-identical distributions across
// convolved AND estimated extensions, chained along multi-edge paths,
// with a scratch reused (Reset) between paths the way a pooled search
// reuses it.
func TestExtendIntoMatchesExtend(t *testing.T) {
	model, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(12)
	if len(pairs) == 0 {
		t.Skip("no pairs with support")
	}
	var s Scratch
	sawEstimate, sawConvolve := false, false
	for n, k := range pairs {
		if n >= 200 {
			break
		}
		if model.ShouldEstimate(k.First, k.Second) {
			sawEstimate = true
		} else {
			sawConvolve = true
		}
		plain, _ := refExtend(model, refInitialHist(model.KB, k.First), k.First, k.Second)
		scratch := model.ExtendInto(&s, model.InitialHistInto(&s, k.First), k.First, k.Second)
		distsBitEqual(t, "pair extension", plain, scratch)

		// Chain a second hop to exercise long-virtual inputs.
		g := e.kb.Graph()
		for _, next := range g.Out(g.Edge(k.Second).To) {
			plain2, _ := refExtend(model, plain, k.Second, next)
			scratch2 := model.ExtendInto(&s, scratch, k.Second, next)
			distsBitEqual(t, "chained extension", plain2, scratch2)
			break
		}
		s.Reset()
	}
	if !sawConvolve {
		t.Error("test never exercised the convolution branch")
	}
	if !sawEstimate {
		t.Log("note: no estimated extension exercised (classifier chose convolve everywhere)")
	}
}

// TestConvolutionCosterExtendInto pins the baseline coster to its heap
// reference the same way.
func TestConvolutionCosterExtendInto(t *testing.T) {
	e := getEnv(t)
	c := &ConvolutionCoster{KB: e.kb, MaxBuckets: 64}
	pairs := e.obs.PairsWithSupport(12)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	var s Scratch
	for n, k := range pairs {
		if n >= 50 {
			break
		}
		plain := refConvolutionExtend(c, refInitialHist(c.KB, k.First), k.Second)
		scratch := c.ExtendInto(&s, c.InitialHistInto(&s, k.First), k.First, k.Second)
		distsBitEqual(t, "conv extension", plain, scratch)
		s.Reset()
	}
}

// TestWithStatsScratchCapability: the per-request counting view must
// keep the ScratchCoster heap forms (the benchmark harness's traced
// coster type-asserts them), answer them with the reference's bits, and
// count ExtendInto decisions.
func TestWithStatsScratchCapability(t *testing.T) {
	model, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(12)
	if len(pairs) == 0 {
		t.Skip("no pairs")
	}
	var qs QueryStats
	c := model.WithStats(&qs)
	sc, ok := c.(ScratchCoster)
	if !ok {
		t.Fatal("WithStats view lost the ScratchCoster capability")
	}
	var s Scratch
	k := pairs[0]
	sc.ExtendInto(&s, sc.InitialHistInto(&s, k.First), k.First, k.Second)
	if qs.Convolved+qs.Estimated != 1 {
		t.Errorf("ExtendInto not tallied: %+v", qs)
	}
	want, _ := refExtend(model, refInitialHist(model.KB, k.First), k.First, k.Second)
	distsBitEqual(t, "heap view", sc.Extend(sc.InitialHist(k.First), k.First, k.Second), want)
}

// TestExtendElapsedIntoMatchesExtendElapsed pins the temporal form to
// the heap reference on chains that cross the slice boundary of a K = 2
// set whose slices decide differently (slice 0 estimates wherever the
// pair has data, slice 1 always convolves): ExtendElapsedInto equals
// the reference step of the slice SliceAtElapsed picks, bit for bit,
// with the same decisions tallied.
func TestExtendElapsedIntoMatchesExtendElapsed(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	pairs := e.obs.PairsWithSupport(12)
	if len(pairs) == 0 {
		t.Skip("no pairs with support")
	}
	slice := func(mode ClassifierMode) *Model {
		return &Model{KB: m.KB, Estimator: m.Estimator, Classifier: m.Classifier, Mode: mode, MaxBuckets: m.MaxBuckets}
	}
	set, err := NewModelSet([]*Model{slice(AlwaysEstimate), slice(AlwaysConvolve)})
	if err != nil {
		t.Fatal(err)
	}
	g := e.kb.Graph()
	boundary := traj.SliceStart(1, 2)
	var s Scratch
	crossed := 0
	for n, k := range pairs {
		if n >= 50 {
			break
		}
		// Depart so that the first edge's mean alone stays in slice 0
		// and the two-edge mean is past the boundary.
		first := m.KB.Edge(k.First).Marginal.Mean()
		depart := boundary - 1.5*first
		var refStats, arenaStats QueryStats
		arena := set.TimeExpandedCoster(depart, &arenaStats)

		hh := refInitialHist(set.At(set.SliceOf(depart)).KB, k.First)
		ha := arena.InitialHistInto(&s, k.First)
		distsBitEqual(t, "initial", hh, ha)
		last, next := k.First, k.Second
		seen := [2]bool{}
		for hop := 0; hop < 4; hop++ {
			elapsed := hh.Mean()
			sl := arena.SliceAtElapsed(elapsed)
			seen[sl] = true
			var estimated bool
			hh, estimated = refExtend(set.At(sl), hh, last, next)
			refStats.tally(estimated)
			ha = arena.ExtendElapsedInto(&s, elapsed, ha, last, next)
			distsBitEqual(t, "elapsed extension", hh, ha)
			out := g.Out(g.Edge(next).To)
			if len(out) == 0 {
				break
			}
			last, next = next, out[0]
		}
		if refStats != arenaStats {
			t.Fatalf("decisions tallied differently: reference %+v, arena %+v", refStats, arenaStats)
		}
		if seen[0] && seen[1] {
			crossed++
			if refStats.Convolved == 0 || refStats.Estimated == 0 {
				t.Fatalf("chain crossed the boundary but consulted one model only: %+v", refStats)
			}
		}
		s.Reset()
	}
	if crossed == 0 {
		t.Fatal("no chain crossed the slice boundary")
	}
}

// uninterned returns a copy of kb in which every edge has a statistics
// entry of its own, stats[e] for edge e, so a test can change one edge's
// without the edges that share it.
func uninterned(kb *KnowledgeBase) *KnowledgeBase {
	out := *kb
	out.stats = make([]EdgeStats, len(kb.statOf))
	out.statOf = make([]int32, len(kb.statOf))
	for e := range out.statOf {
		out.stats[e], out.statOf[e] = kb.Edge(graph.EdgeID(e)), int32(e)
	}
	return &out
}

// TestMinEdgeTimeWithinMatchesSweep checks the bound against a sweep of
// the interval it stands for — the minimum over every slice SliceOf
// reports between depart and depart+horizon — on a K = 4 set whose
// slices disagree on every edge's optimistic time, for departures
// either side of midnight and horizons from inside one slice to beyond
// a day. The search asks per out-edge, so the call must not allocate,
// re-memoising a new horizon included.
func TestMinEdgeTimeWithinMatchesSweep(t *testing.T) {
	e := getEnv(t)
	const k = 4
	models := make([]*Model, k)
	for s := range models {
		// One knowledge base per slice, the optimistic times staggered so
		// that no two slices agree on every edge.
		kb := uninterned(e.kb)
		for id := range kb.stats {
			kb.stats[id].MinTime += float64((id+s)%k) * kb.Width
		}
		models[s] = &Model{KB: kb}
	}
	set, err := NewModelSet(models)
	if err != nil {
		t.Fatal(err)
	}
	dur := traj.SliceDuration(k)
	differ := 0
	for _, depart := range []float64{0, 60, dur - 60, 2*dur + 1, traj.DaySeconds - 30, -45, traj.DaySeconds + dur/2} {
		for _, horizon := range []float64{-5, 0, 59, 60, 61, dur, 2.5 * dur, traj.DaySeconds - 1, 2 * traj.DaySeconds} {
			tc := set.TimeExpandedCoster(depart, nil)
			reach := map[int]bool{set.SliceOf(depart + max(horizon, 0)): true}
			for el := 0.0; el < horizon; el += 30 {
				reach[set.SliceOf(depart+el)] = true
			}
			for id := 0; id < e.g.NumEdges(); id += 7 {
				edge := graph.EdgeID(id)
				want := math.Inf(1)
				for s := range reach {
					want = math.Min(want, set.At(s).MinEdgeTime(edge))
				}
				if got := tc.MinEdgeTimeWithin(edge, horizon); got != want {
					t.Fatalf("depart %v horizon %v edge %d: MinEdgeTimeWithin = %v, sweep over slices %v = %v",
						depart, horizon, id, got, reach, want)
				}
				if want != tc.MinEdgeTime(edge) {
					differ++
				}
			}
		}
	}
	if differ == 0 {
		t.Fatal("the bound never differed from the all-slice minimum; the fixture's slices agree everywhere")
	}
	tc := set.TimeExpandedCoster(dur-60, nil)
	allocs := testing.AllocsPerRun(100, func() {
		tc.MinEdgeTimeWithin(3, 59)
		tc.MinEdgeTimeWithin(3, 3*dur)
	})
	if allocs != 0 {
		t.Errorf("MinEdgeTimeWithin allocates %v per pair of calls", allocs)
	}
}

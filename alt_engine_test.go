package stochroute

import (
	"context"
	"math"
	"slices"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// sameRouteResult asserts two engine answers describe the same route,
// bit for bit: potentials choice (exact vs ALT) must never change what
// a query returns. Telemetry is excluded — ALT bounds are weaker, so
// expansion counts legitimately differ.
func sameRouteResult(t *testing.T, label string, want, got *RouteResult) {
	t.Helper()
	if want.Found != got.Found || want.Complete != got.Complete {
		t.Fatalf("%s: found/complete %v/%v vs %v/%v", label, want.Found, want.Complete, got.Found, got.Complete)
	}
	if want.Prob != got.Prob {
		t.Fatalf("%s: prob %v vs %v (not bit-equal)", label, want.Prob, got.Prob)
	}
	if len(want.Path) != len(got.Path) {
		t.Fatalf("%s: path lengths %d vs %d", label, len(want.Path), len(got.Path))
	}
	for i := range want.Path {
		if want.Path[i] != got.Path[i] {
			t.Fatalf("%s: path[%d] = %d vs %d", label, i, want.Path[i], got.Path[i])
		}
	}
	if (want.Dist == nil) != (got.Dist == nil) {
		t.Fatalf("%s: dist nil mismatch", label)
	}
	if want.Dist != nil {
		if want.Dist.Min != got.Dist.Min || want.Dist.Width != got.Dist.Width || len(want.Dist.P) != len(got.Dist.P) {
			t.Fatalf("%s: dist shape mismatch", label)
		}
		for i := range want.Dist.P {
			if want.Dist.P[i] != got.Dist.P[i] {
				t.Fatalf("%s: dist P[%d] %v vs %v", label, i, want.Dist.P[i], got.Dist.P[i])
			}
		}
	}
	if len(want.SliceSeq) != len(got.SliceSeq) {
		t.Fatalf("%s: slice seq lengths %d vs %d", label, len(want.SliceSeq), len(got.SliceSeq))
	}
	for i := range want.SliceSeq {
		if want.SliceSeq[i] != got.SliceSeq[i] {
			t.Fatalf("%s: sliceSeq[%d] = %d vs %d", label, i, want.SliceSeq[i], got.SliceSeq[i])
		}
	}
}

// TestEngineSetLandmarks walks the full ALT lifecycle on a serving
// engine: enable (results bit-identical to exact potentials, epoch
// bumps), survive a model hot swap (tables rebuilt before publish),
// and disable (back to exact). Classic and time-expanded queries are
// checked at every step, covering both the per-slice and the
// min-across-slices table injection in routeOnSnapshot.
func TestEngineSetLandmarks(t *testing.T) {
	e := testEngine(t)
	if e.Landmarks() != 0 {
		t.Fatalf("fresh engine has %d landmarks, want 0", e.Landmarks())
	}
	if err := e.SetLandmarks(-1); err == nil {
		t.Fatal("negative landmark count accepted")
	}

	qs, err := e.SampleQueries(0.5, 1.5, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	type variant struct {
		label string
		opts  RouteOptions
	}
	run := func() []*RouteResult {
		var out []*RouteResult
		for _, q := range qs {
			optimistic, err := e.OptimisticTime(q.Source, q.Dest)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range []variant{
				{"classic", RouteOptions{Budget: 1.35 * optimistic}},
				{"time-expanded", RouteOptions{Budget: 1.35 * optimistic, Departure: 43150, TimeExpanded: true}},
			} {
				res, err := e.RouteCtx(context.Background(), q.Source, q.Dest, v.opts)
				if err != nil {
					t.Fatalf("%s: %v", v.label, err)
				}
				out = append(out, res)
			}
		}
		return out
	}
	compare := func(stage string, want, got []*RouteResult) {
		t.Helper()
		for i := range want {
			sameRouteResult(t, stage, want[i], got[i])
		}
	}

	exact := run()

	preEpoch := e.ModelEpoch()
	if err := e.SetLandmarks(12); err != nil {
		t.Fatal(err)
	}
	if e.Landmarks() != 12 {
		t.Fatalf("Landmarks() = %d, want 12", e.Landmarks())
	}
	if e.ModelEpoch() != preEpoch+1 {
		t.Fatalf("SetLandmarks epoch %d, want %d (caches must revalidate)", e.ModelEpoch(), preEpoch+1)
	}
	compare("alt-enabled", exact, run())

	// A model hot swap must rebuild the tables before publishing; the
	// swapped-in model shares the serving model's statistics, so answers
	// stay bit-identical and ALT stays on.
	if _, err := e.SwapModel(sameWeightsModel(e.Model()), nil); err != nil {
		t.Fatal(err)
	}
	if e.Landmarks() != 12 {
		t.Fatalf("Landmarks() = %d after swap, want 12", e.Landmarks())
	}
	compare("alt-after-swap", exact, run())

	if err := e.SetLandmarks(0); err != nil {
		t.Fatal(err)
	}
	if e.Landmarks() != 0 {
		t.Fatalf("Landmarks() = %d after disable, want 0", e.Landmarks())
	}
	compare("alt-disabled", exact, run())
}

// TestEngineSliceSwapKeepsAndSharesALTTables: on a four-slice engine a
// per-slice swap leaves every untouched slice's table where it was
// (pointer-equal), and after it any two of the five tables — the four
// slices' and the min-across one — are one table exactly when their
// metrics are equal bit for bit. Slice 2 takes a model over slice 0's
// knowledge base, which must share slice 0's table, then one over a
// congested world's, whose metric no other slice has.
func TestEngineSliceSwapKeepsAndSharesALTTables(t *testing.T) {
	const k = 4
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 12, 12
	ncfg.CellMeters = 130
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	simulate := func(prior []float64, seed uint64) ([]Trajectory, float64) {
		wcfg := traj.DefaultWorldConfig()
		wcfg.ModePrior = prior
		w, err := traj.NewWorld(g, wcfg)
		if err != nil {
			t.Fatal(err)
		}
		trs, err := traj.GenerateTrajectories(w, traj.WalkConfig{NumTrajectories: 2000, MinEdges: 4, MaxEdges: 16, Seed: seed, Slices: k})
		if err != nil {
			t.Fatal(err)
		}
		return trs, wcfg.BucketWidth
	}
	trs, width := simulate(traj.DefaultWorldConfig().ModePrior, 5)
	obs := traj.CollectSlices(g, width, k, trs)
	models := make([]*hybrid.Model, k)
	for s := range models {
		kb, err := hybrid.BuildKnowledgeBase(g, obs[s], width, 10)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = &hybrid.Model{KB: kb}
	}
	set, err := hybrid.NewModelSet(models)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngineWithModelSet(g, trs, width, 10, set)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetLandmarks(6); err != nil {
		t.Fatal(err)
	}
	jammedTrips, _ := simulate([]float64{0, 0.5, 0.5}, 6)
	jammedKB, err := hybrid.BuildKnowledgeBase(g, traj.CollectSlices(g, width, 1, jammedTrips)[0], width, 10)
	if err != nil {
		t.Fatal(err)
	}

	bitsOf := func(w routing.WeightFunc) []uint64 {
		out := make([]uint64, g.NumEdges())
		for e := range out {
			out[e] = math.Float64bits(w(graph.EdgeID(e)))
		}
		return out
	}
	swapSlice2 := func(stage string, kb *KnowledgeBase) *routing.ALTSet {
		t.Helper()
		before := e.current.Load().alt
		if _, err := e.SwapSliceModel(2, &Model{KB: kb}, nil); err != nil {
			t.Fatal(err)
		}
		cur := e.current.Load()
		after := cur.alt
		for s := range k {
			if s != 2 && after.Slice(s) != before.Slice(s) {
				t.Errorf("%s: untouched slice %d's table was replaced", stage, s)
			}
		}
		metrics := []routing.WeightFunc{cur.set.MinEdgeTimeAcrossSlices}
		tables := []*routing.ALT{after.Min()}
		for s := range k {
			metrics = append(metrics, cur.set.At(s).MinEdgeTime)
			tables = append(tables, after.Slice(s))
		}
		bits := make([][]uint64, len(metrics))
		for i, m := range metrics {
			bits[i] = bitsOf(m)
		}
		for i := range tables {
			for j := range i {
				if shared, equal := tables[i] == tables[j], slices.Equal(bits[i], bits[j]); shared != equal {
					t.Errorf("%s: tables %d and %d (0 is the min-across one): shared %v, metrics equal bit for bit %v", stage, i, j, shared, equal)
				}
			}
		}
		return after
	}

	if after := swapSlice2("slice 0's knowledge base", e.SliceKnowledgeBase(0)); after.Slice(2) != after.Slice(0) {
		t.Fatal("slice 2 over slice 0's knowledge base has a table of its own")
	}
	jammed := bitsOf(jammedKB.MinEdgeTime)
	for s := range k {
		if slices.Equal(jammed, bitsOf(e.SliceKnowledgeBase(s).MinEdgeTime)) {
			t.Fatalf("the congested knowledge base has slice %d's metric; the test needs one no slice has", s)
		}
	}
	swapSlice2("a congested knowledge base", jammedKB)
}

package stochroute

import (
	"context"
	"testing"
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

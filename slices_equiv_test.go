package stochroute

import (
	"context"
	"testing"

	"stochroute/internal/hybrid"
	"stochroute/internal/routing"
)

// TestSingleSliceEquivalence is the temporal refactor's degeneracy
// proof: on a 1-slice engine (the default), RouteCtx with ANY
// departure must be bit-identical — route, probability, distribution
// and telemetry — to the pre-refactor query path, which is a direct
// PBR search on the serving model. Slice selection must be a pure
// no-op when K = 1.
func TestSingleSliceEquivalence(t *testing.T) {
	e := testEngine(t)
	if e.NumSlices() != 1 {
		t.Fatalf("default engine has %d slices, want 1", e.NumSlices())
	}
	qs, err := e.SampleQueries(0.5, 1.5, 4, 77)
	if err != nil {
		t.Fatal(err)
	}
	departures := []float64{0, 8 * 3600, 12*3600 + 1800, 86399, 123456}
	for qi, q := range qs {
		opt, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			continue
		}
		budget := 1.5 * opt

		// The pre-refactor path: PBR directly on the serving model with
		// per-request decision stats — exactly what Engine.Route did
		// before slices existed.
		var wantStats hybrid.QueryStats
		want, err := routing.PBR(e.Graph(), e.SliceModel(0).WithStats(&wantStats), q.Source, q.Dest,
			routing.Options{Budget: budget})
		if err != nil {
			t.Fatalf("query %d: direct PBR: %v", qi, err)
		}

		for _, depart := range departures {
			got, err := e.RouteCtx(context.Background(), q.Source, q.Dest, RouteOptions{Budget: budget, Departure: depart})
			if err != nil {
				t.Fatalf("query %d depart %v: %v", qi, depart, err)
			}
			if got.Found != want.Found || got.Complete != want.Complete {
				t.Fatalf("query %d depart %v: found/complete (%v,%v) != (%v,%v)",
					qi, depart, got.Found, got.Complete, want.Found, want.Complete)
			}
			if got.Prob != want.Prob {
				t.Errorf("query %d depart %v: prob %v != %v", qi, depart, got.Prob, want.Prob)
			}
			if len(got.Path) != len(want.Path) {
				t.Fatalf("query %d depart %v: path length %d != %d", qi, depart, len(got.Path), len(want.Path))
			}
			for i := range want.Path {
				if got.Path[i] != want.Path[i] {
					t.Fatalf("query %d depart %v: path differs at %d", qi, depart, i)
				}
			}
			// The distribution must match bucket for bucket, bit for bit.
			if got.Dist.Min != want.Dist.Min || got.Dist.Width != want.Dist.Width || len(got.Dist.P) != len(want.Dist.P) {
				t.Fatalf("query %d depart %v: distribution shape differs", qi, depart)
			}
			for i := range want.Dist.P {
				if got.Dist.P[i] != want.Dist.P[i] {
					t.Fatalf("query %d depart %v: distribution bucket %d: %v != %v",
						qi, depart, i, got.Dist.P[i], want.Dist.P[i])
				}
			}
			// Search and cost-model telemetry.
			if got.Expansions != want.Expansions || got.GeneratedLabels != want.GeneratedLabels {
				t.Errorf("query %d depart %v: search telemetry (%d,%d) != (%d,%d)",
					qi, depart, got.Expansions, got.GeneratedLabels, want.Expansions, want.GeneratedLabels)
			}
			if got.NumConvolved != wantStats.Convolved || got.NumEstimated != wantStats.Estimated {
				t.Errorf("query %d depart %v: decisions (%d,%d) != (%d,%d)",
					qi, depart, got.NumConvolved, got.NumEstimated, wantStats.Convolved, wantStats.Estimated)
			}
			if got.Slice != 0 {
				t.Errorf("query %d depart %v: slice %d, want 0", qi, depart, got.Slice)
			}
			if got.ModelEpoch != e.ModelEpoch() {
				t.Errorf("query %d depart %v: epoch %d, want %d", qi, depart, got.ModelEpoch, e.ModelEpoch())
			}
		}
	}
}

// TestSingleSliceBatchEquivalence: the batched path under departures
// on a 1-slice engine carries the global epoch on every item and
// answers exactly like the unbatched path.
func TestSingleSliceBatchEquivalence(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.2, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	var queries []BatchQuery
	for i, q := range qs {
		opt, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			continue
		}
		queries = append(queries, BatchQuery{
			Source: q.Source, Dest: q.Dest,
			Opts: RouteOptions{Budget: 1.4 * opt, Departure: float64(i * 20000)},
		})
	}
	items := e.RouteBatch(context.Background(), queries, 2)
	for i, it := range items {
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		if it.Epoch != e.ModelEpoch() {
			t.Errorf("item %d: epoch %d != %d", i, it.Epoch, e.ModelEpoch())
		}
		want, err := e.RouteCtx(context.Background(), queries[i].Source, queries[i].Dest, queries[i].Opts)
		if err != nil {
			t.Fatal(err)
		}
		if it.Result.Prob != want.Prob || len(it.Result.Path) != len(want.Path) {
			t.Errorf("item %d: batched answer differs from unbatched", i)
		}
	}
}

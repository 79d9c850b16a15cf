package stochroute

import (
	"context"
	"testing"

	"stochroute/internal/hybrid"
	"stochroute/internal/israce"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// Steady-state allocation ceilings of one routed query, measured with
// testing.AllocsPerRun after the workspace pool is warm — the numbers
// the cold 20-iteration benchmark gate could not measure without pool
// refills deciding the outcome. What still allocates is what escapes
// the search: the Result, the per-request coster view, and a clone of
// the pivot's distribution plus its path at each pivot improvement.
const (
	maxRouteAllocs = 64
	// A sampled trace through routing.PBRCtx — the level the retired
	// BenchmarkRoutingPBRTraced gate measured — may add the trace, its
	// root, the potentials/expand phase spans and their attributes.
	maxTracedExtras = 18
)

func TestRouteSteadyStateAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("under the race detector sync.Pool drops Puts at random; there is no steady state to count")
	}
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	tracer := obs.NewTracer(obs.NewSpanStore(64, 0), 1)
	for _, expanded := range []bool{false, true} {
		for qi, q := range qs {
			opt, err := e.OptimisticTime(q.Source, q.Dest)
			if err != nil {
				t.Fatal(err)
			}
			opts := RouteOptions{Budget: 1.5 * opt, TimeExpanded: expanded}
			route := func() {
				if _, err := e.RouteCtx(context.Background(), q.Source, q.Dest, opts); err != nil {
					t.Fatal(err)
				}
			}
			route() // warm the pooled workspace to this query's size
			if n := testing.AllocsPerRun(20, route); n > maxRouteAllocs {
				t.Errorf("query %d expanded=%t: %v allocs per search, ceiling %d", qi, expanded, n, maxRouteAllocs)
			}

			coster := hybrid.Coster(e.SliceModel(0))
			if expanded {
				coster = e.ModelSet().TimeExpandedCoster(0, nil)
			}
			kernel := func(ctx context.Context) {
				if _, err := routing.PBRCtx(ctx, e.Graph(), coster, q.Source, q.Dest, opts); err != nil {
					t.Fatal(err)
				}
			}
			untraced := testing.AllocsPerRun(20, func() { kernel(context.Background()) })
			traced := testing.AllocsPerRun(20, func() {
				ctx, root := tracer.StartBackground("alloc-gate", "alloc-gate-req")
				kernel(ctx)
				tracer.Finish(root)
			})
			if traced-untraced > maxTracedExtras {
				t.Errorf("query %d expanded=%t: a sampled trace adds %v allocs per search, ceiling %d", qi, expanded, traced-untraced, maxTracedExtras)
			}
		}
	}
}

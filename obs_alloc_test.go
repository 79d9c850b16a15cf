package stochroute

import (
	"context"
	"testing"

	"stochroute/internal/israce"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// TestRouteMetricsZeroExtraAllocs is the observability hot-path gate at
// the engine level: attaching search metrics to RouteCtx must
// not add a single allocation per query over the uninstrumented path —
// the telemetry is atomics on pre-registered series, nothing more.
func TestRouteMetricsZeroExtraAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("under the race detector sync.Pool drops Puts at random; allocation counts of two runs differ by pool refills")
	}
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.2, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	opt, err := e.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	opts := routing.Options{Budget: 1.5 * opt}

	run := func() float64 {
		return testing.AllocsPerRun(30, func() {
			if _, err := e.RouteCtx(context.Background(), q.Source, q.Dest, opts); err != nil {
				t.Fatal(err)
			}
		})
	}

	e.SetSearchMetrics(nil)
	run() // warm the scratch pool so arena growth never skews either side
	detached := run()

	reg := obs.NewRegistry()
	e.SetSearchMetrics(obs.NewSearchMetrics(reg, e.NumSlices()))
	defer e.SetSearchMetrics(nil)
	attached := run()

	if attached-detached >= 1 {
		t.Errorf("metrics add allocations on the route path: %v allocs/op attached vs %v detached",
			attached, detached)
	}
}

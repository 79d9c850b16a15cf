package stochroute

import (
	"context"
	"math"
	"slices"
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
// the search, built once on the way out: the Result, its distribution
// (header and masses), its path and, time-expanded, its slice
// sequence; plus the request's QueryStats, which holds its coster
// view. A complete search and an anytime cut-off allocate the same: 5
// classic, 6 time-expanded on the test engine.
const (
	maxRouteAllocs = 8
	// A SeedPath query also costs its seed: the seed's own clone
	// (header and masses) and, time-expanded, its slice sequence. Its
	// answer is either that clone or the pivot's, never both.
	maxSeededRouteAllocs = 11
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
			seed, _, err := e.MeanRoute(q.Source, q.Dest)
			if err != nil {
				t.Fatal(err)
			}
			opts := RouteOptions{Budget: 1.5 * opt, TimeExpanded: expanded}
			full, err := e.RouteCtx(context.Background(), q.Source, q.Dest, opts)
			if err != nil {
				t.Fatal(err)
			}
			seeded := opts
			seeded.SeedPath, seeded.SwitchMargin = seed, 0.02
			// The latest cut-off that leaves the search incomplete with
			// a pivot found.
			cutOff := opts
			for cutOff.MaxExpansions = full.Expansions - 1; cutOff.MaxExpansions > 0; cutOff.MaxExpansions-- {
				res, err := e.RouteCtx(context.Background(), q.Source, q.Dest, cutOff)
				if err != nil {
					t.Fatal(err)
				}
				if res.Found && !res.Complete {
					break
				}
			}
			if cutOff.MaxExpansions == 0 {
				t.Fatalf("query %d expanded=%t: no cut-off finds a pivot", qi, expanded)
			}
			for _, c := range []struct {
				name    string
				opts    RouteOptions
				ceiling float64
			}{
				{"plain", opts, maxRouteAllocs},
				{"seeded", seeded, maxSeededRouteAllocs},
				{"cut-off", cutOff, maxRouteAllocs},
			} {
				route := func() {
					if _, err := e.RouteCtx(context.Background(), q.Source, q.Dest, c.opts); err != nil {
						t.Fatal(err)
					}
				}
				route() // warm the pooled workspace to this query's size
				n := testing.AllocsPerRun(20, route)
				t.Logf("query %d expanded=%t %s: %v allocs per search", qi, expanded, c.name, n)
				if n > c.ceiling {
					t.Errorf("query %d expanded=%t %s: %v allocs per search, ceiling %v", qi, expanded, c.name, n, c.ceiling)
				}
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

// answerCopy is a deep copy of what a RouteResult hands its caller.
type answerCopy struct {
	path     []EdgeID
	sliceSeq []int
	min      uint64
	width    uint64
	masses   []uint64
}

func copyAnswer(r *RouteResult) answerCopy {
	a := answerCopy{
		path:     slices.Clone(r.Path),
		sliceSeq: slices.Clone(r.SliceSeq),
		min:      math.Float64bits(r.Dist.Min),
		width:    math.Float64bits(r.Dist.Width),
	}
	for _, p := range r.Dist.P {
		a.masses = append(a.masses, math.Float64bits(p))
	}
	return a
}

func (a answerCopy) equal(b answerCopy) bool {
	return slices.Equal(a.path, b.path) && slices.Equal(a.sliceSeq, b.sliceSeq) &&
		a.min == b.min && a.width == b.width && slices.Equal(a.masses, b.masses)
}

// TestRouteResultOwnsItsAnswer holds that an answer is the caller's: the
// searches that run after it on the same pooled workspace — one larger
// and time-expanded, one falling back to its seed path under
// SwitchMargin — leave its path, slice sequence and distribution
// untouched, and the seed's answer is the seed's own distribution.
func TestRouteResultOwnsItsAnswer(t *testing.T) {
	e := testEngine(t)
	route := func(q Query, opts RouteOptions) *RouteResult {
		t.Helper()
		opt, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		opts.Budget = 1.5 * opt
		r, err := e.RouteCtx(context.Background(), q.Source, q.Dest, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || len(r.Path) == 0 {
			t.Fatalf("%d→%d: no path", q.Source, q.Dest)
		}
		if got := r.Dist.CDF(opts.Budget); got != r.Prob {
			t.Fatalf("%d→%d: Prob %v, but the answer's distribution reads %v at the budget", q.Source, q.Dest, r.Prob, got)
		}
		return r
	}
	short, err := e.SampleQueries(0.5, 1.0, 2, 31)
	if err != nil {
		t.Fatal(err)
	}
	long, err := e.SampleQueries(1.8, 2.6, 1, 32)
	if err != nil {
		t.Fatal(err)
	}
	a := route(short[0], RouteOptions{})
	wantA := copyAnswer(a)

	b := route(long[0], RouteOptions{TimeExpanded: true})
	if len(b.Path) <= len(a.Path) || len(b.SliceSeq) != len(b.Path) {
		t.Fatalf("B: %d edges and %d slices, want a time-expanded path longer than A's %d edges", len(b.Path), len(b.SliceSeq), len(a.Path))
	}

	seed, _, err := e.MeanRoute(short[1].Source, short[1].Dest)
	if err != nil {
		t.Fatal(err)
	}
	c := route(short[1], RouteOptions{SeedPath: seed, SwitchMargin: 1})
	if !slices.Equal(c.Path, seed) {
		t.Fatalf("C: path %v, want the fall-back to the seed %v", c.Path, seed)
	}
	wantC := copyAnswer(c)

	// One more search on the workspace, which C's answer must survive too.
	route(long[0], RouteOptions{TimeExpanded: true})
	if !copyAnswer(a).equal(wantA) {
		t.Error("A's answer changed under the searches that ran after it")
	}
	if !copyAnswer(c).equal(wantC) {
		t.Error("C's seed answer changed under the search that ran after it")
	}
}

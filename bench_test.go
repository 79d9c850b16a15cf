// Serving, ingest and kernel benchmarks of the root package. The
// benchmarks of the paper's tables (E1–E8) and the search kernels timed
// on the experiment substrate live in internal/exp.
package stochroute

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/routing"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// BenchmarkConcurrentRouting measures serving-path throughput: parallel
// budget-routing queries on ONE shared engine (the read-only query
// path), raw and through the HTTP handler with the sharded result
// cache off and on. This is the perf baseline for future serving PRs.
func BenchmarkConcurrentRouting(b *testing.B) {
	e := testEngine(b)
	qs, err := e.SampleQueries(0.4, 1.2, 24, 99)
	if err != nil {
		b.Fatal(err)
	}
	budgets := make([]float64, len(qs))
	for i, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			b.Fatal(err)
		}
		budgets[i] = 1.35 * optimistic
	}
	urls := make([]string, len(qs))
	for i, q := range qs {
		urls[i] = fmt.Sprintf("/route?source=%d&dest=%d&budget=%.3f", q.Source, q.Dest, budgets[i])
	}

	b.Run("engine", func(b *testing.B) {
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				k := i % len(qs)
				if _, err := e.Route(qs[k].Source, qs[k].Dest, budgets[k]); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
	})

	serveAll := func(b *testing.B, h http.Handler) {
		b.Helper()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				req := httptest.NewRequest(http.MethodGet, urls[i%len(urls)], nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				i++
			}
		})
	}

	b.Run("server/uncached", func(b *testing.B) {
		srv := server.New(e, server.Config{RouteCache: -1})
		serveAll(b, srv.Handler())
	})

	b.Run("server/cached", func(b *testing.B) {
		srv := server.New(e, server.Config{})
		h := srv.Handler()
		for _, url := range urls { // warm the cache
			req := httptest.NewRequest(http.MethodGet, url, nil)
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		b.ResetTimer()
		serveAll(b, h)
	})
}

// BenchmarkIngest measures the write path's fold rate: trajectories
// per second validated and merged into the incremental observation
// aggregate on a live engine. Drift windows and rebuilds are disabled
// — they are background amortised costs, not per-trajectory ones — so
// the number is the synchronous cost a POST /ingest request pays per
// trajectory.
func BenchmarkIngest(b *testing.B) {
	e := testEngine(b)
	trs, err := traj.GenerateTrajectories(e.World(), traj.WalkConfig{
		NumTrajectories: 2048, MinEdges: 4, MaxEdges: 20, Seed: 123,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := ingest.Config{
		Hybrid:                 hybrid.DefaultConfig(),
		Drift:                  ingest.DriftConfig{Window: -1},
		MinRebuildTrajectories: 1 << 30,
	}
	cfg.Hybrid.Width = e.SliceModel(0).Width()
	in := ingest.New(e, cfg, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(trs)
		if accepted, rejected := in.Ingest(trs[k : k+1]); accepted != 1 || rejected != 0 {
			b.Fatalf("trajectory %d rejected", k)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "trajs/s")
}

// BenchmarkConvolve measures raw histogram convolution at routing-typical
// support sizes.
func BenchmarkConvolve(b *testing.B) {
	a := hist.Uniform(100, 2, 128)
	edge := hist.Uniform(10, 2, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = hist.MustConvolve(a, edge)
	}
}

// BenchmarkDominance measures the three verdicts pruning (d) asks of a
// frontier pair, on 128-bucket histograms: a proved dominator, whose
// CompareCDF walks every grid point; an incomparable pair, whose CDFs
// cross a few points in and end the walk there; and the one-sided kill
// check a child runs once it is dominated, failing at the entry's
// first grid point.
func BenchmarkDominance(b *testing.B) {
	early := hist.Uniform(100, 2, 128)
	late := hist.Uniform(102, 2, 128)
	steep := hist.Uniform(110, 2, 64)
	b.Run("dominated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if aGE, bGE := hist.CompareCDF(early, late); !aGE || bGE {
				b.Fatal("early does not dominate late")
			}
		}
	})
	b.Run("incomparable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if aGE, bGE := hist.CompareCDF(early, steep); aGE || bGE {
				b.Fatal("early and steep are comparable")
			}
		}
	})
	b.Run("kill-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if late.DominatesOrEqual(early) {
				b.Fatal("late dominates early")
			}
		}
	})
}

// osmScaleFixture is the OSM-scale proving ground for ALT: a
// deterministic synthetic network of >1M directed edges (the size class
// of a large metropolitan OSM extract) with sparse synthetic temporal
// trajectories, a knowledge base over them, prebuilt ALT landmark
// tables, and a query workload with tight budgets. Built once per
// process — the graph plus tables cost a few seconds and ~150MB.
type osmScaleFixture struct {
	g       *graph.Graph
	kb      *hybrid.KnowledgeBase
	alt     *routing.ALT
	queries []netgen.Query
	budgets []float64
}

var (
	osmOnce sync.Once
	osmFix  *osmScaleFixture
	osmErr  error
)

func getOSMFixture(b *testing.B) *osmScaleFixture {
	b.Helper()
	osmOnce.Do(func() { osmFix, osmErr = buildOSMFixture() })
	if osmErr != nil {
		b.Fatalf("OSM fixture: %v", osmErr)
	}
	return osmFix
}

func buildOSMFixture() (*osmScaleFixture, error) {
	netCfg := netgen.DefaultConfig()
	netCfg.Rows, netCfg.Cols = 520, 520
	g, err := netgen.Generate(netCfg)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() < 1_000_000 {
		return nil, fmt.Errorf("OSM-scale fixture has %d edges, need >= 1M", g.NumEdges())
	}

	// Synthetic temporal trajectories: deterministic random walks whose
	// per-edge times scatter around free flow and whose departures cover
	// the day. Coverage is deliberately sparse (~2%% of edges observed),
	// like map-matched GPS on a metro extract; the knowledge base fills
	// the rest with category priors.
	const width = 2.0
	r := rand.New(rand.NewSource(7))
	store := traj.NewObservationStore(g, width)
	trs := make([]traj.Trajectory, 0, 4096)
	for len(trs) < 4096 {
		v := graph.VertexID(r.Intn(g.NumVertices()))
		var tr traj.Trajectory
		tr.Departure = r.Float64() * 86400
		for len(tr.Edges) < 10 {
			out := g.Out(v)
			if len(out) == 0 {
				break
			}
			e := out[r.Intn(len(out))]
			tr.Edges = append(tr.Edges, e)
			tr.Times = append(tr.Times, g.Edge(e).FreeFlowSeconds()*(1.05+0.5*r.Float64()))
			v = g.Edge(e).To
		}
		if len(tr.Edges) >= 4 {
			trs = append(trs, tr)
		}
	}
	store.Collect(trs)
	kb, err := hybrid.BuildKnowledgeBase(g, store, width, 20)
	if err != nil {
		return nil, err
	}

	lms := routing.SelectLandmarks(g, graph.NewGridIndex(g, 2000).CellRepresentatives(), 16)
	alt, err := routing.BuildALT(g, kb.MinEdgeTime, lms)
	if err != nil {
		return nil, err
	}

	wg := netgen.NewWorkloadGen(g, 17)
	queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 1.5, HiKm: 3.5}, 6)
	if err != nil {
		return nil, err
	}
	budgets := make([]float64, len(queries))
	for i, q := range queries {
		_, optimistic, err := routing.Dijkstra(g, kb.MinEdgeTime, q.Source, q.Dest)
		if err != nil {
			return nil, err
		}
		budgets[i] = 1.15 * optimistic
	}

	// Equivalence guard: the benchmark pair is only meaningful if ALT
	// returns bit-identical answers, so prove it on the workload before
	// timing anything.
	coster := &hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 64}
	for i, q := range queries[:2] {
		exact, err := routing.PBR(g, coster, q.Source, q.Dest, routing.Options{Budget: budgets[i]})
		if err != nil {
			return nil, err
		}
		withALT, err := routing.PBR(g, coster, q.Source, q.Dest, routing.Options{Budget: budgets[i], Potentials: alt})
		if err != nil {
			return nil, err
		}
		if exact.Prob != withALT.Prob || len(exact.Path) != len(withALT.Path) {
			return nil, fmt.Errorf("query %d: ALT diverges from exact potentials (prob %v vs %v)", i, exact.Prob, withALT.Prob)
		}
		for j := range exact.Path {
			if exact.Path[j] != withALT.Path[j] {
				return nil, fmt.Errorf("query %d: ALT path diverges at hop %d", i, j)
			}
		}
	}
	return &osmScaleFixture{g: g, kb: kb, alt: alt, queries: queries, budgets: budgets}, nil
}

// BenchmarkRoutingPBROSM is the tentpole scale proof: the same
// budget-routing workload on the >1M-edge network, once with exact
// per-query backward-Dijkstra potentials and once with the prebuilt ALT
// tables. The exact variant pays a full |V|-heap sweep before every
// search; ALT replaces it with memoised table lookups, which is where
// the >=5x comes from. Answers are bit-identical (the fixture proves it
// at build time).
func BenchmarkRoutingPBROSM(b *testing.B) {
	f := getOSMFixture(b)
	run := func(b *testing.B, src routing.PotentialSource) {
		coster := &hybrid.ConvolutionCoster{KB: f.kb, MaxBuckets: 64}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(f.queries)
			if _, err := routing.PBR(f.g, coster, f.queries[k].Source, f.queries[k].Dest, routing.Options{
				Budget:     f.budgets[k],
				Potentials: src,
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("exact-potentials", func(b *testing.B) { run(b, nil) })
	b.Run("alt-potentials", func(b *testing.B) { run(b, f.alt) })
}

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation (the E1–E8 section banners of internal/exp are the
// experiment index). The benchmarks run on the Small substrate so
// `go test -bench=.` completes in minutes; cmd/experiments regenerates
// the full tables at medium/large scale.
package stochroute

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"stochroute/internal/exp"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

var (
	benchOnce  sync.Once
	benchSetup *exp.Setup
	benchErr   error
)

func getBenchSetup(b *testing.B) *exp.Setup {
	b.Helper()
	benchOnce.Do(func() {
		benchSetup, benchErr = exp.Build(exp.Small, io.Discard)
	})
	if benchErr != nil {
		b.Fatalf("bench setup: %v", benchErr)
	}
	return benchSetup
}

// BenchmarkE1Motivating regenerates the paper's airport table (travel
// time distributions of two paths, deadline 60 minutes).
func BenchmarkE1Motivating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunMotivating(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Convolution regenerates the convolution-vs-ground-truth
// worked example (T1/T2 observations, H1 ⊗ H2 vs truth, KL divergence).
func BenchmarkE2Convolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.RunConvVsTruth(nil, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3DependenceScan measures the chi-square dependence test that
// produces the "≈75% of edge pairs with data are dependent" statistic.
func BenchmarkE3DependenceScan(b *testing.B) {
	s := getBenchSetup(b)
	pairs := s.Obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		b.Skip("no pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := pairs[i%len(pairs)]
		_, _ = s.Obs.DependenceTest(k, 3, 0.05) // constant sides may error; that is part of the scan
	}
}

// BenchmarkE4TrainEval measures the KL evaluation of the trained hybrid
// model against ground truth (the 1000-test-pair protocol, scaled to 50
// pairs per iteration).
func BenchmarkE4TrainEval(b *testing.B) {
	s := getBenchSetup(b)
	pairs := s.Obs.PairsWithSupport(20)
	if len(pairs) > 50 {
		pairs = pairs[:50]
	}
	oracle := &exp.WorldOracle{World: s.World}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Evaluate(s.Model, s.Obs, oracle, pairs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuery returns a deterministic query in the given band plus its
// slack budget.
func benchQuery(b *testing.B, s *exp.Setup, cat netgen.DistanceCategory) (netgen.Query, float64) {
	b.Helper()
	qs := s.Queries[cat.String()]
	if len(qs) == 0 {
		b.Skipf("no queries in %s", cat)
	}
	q := qs[0]
	_, optimistic, err := routing.Dijkstra(s.Graph, s.KB.MinEdgeTime, q.Source, q.Dest)
	if err != nil {
		b.Fatal(err)
	}
	return q, 1.35 * optimistic
}

// BenchmarkE5Quality regenerates the Quality table's query workload: one
// hybrid-model PBR query per iteration, per distance category and anytime
// limit (expansion budgets stand in for the paper's 1/5/10 s; Pinf = no
// limit).
func BenchmarkE5Quality(b *testing.B) {
	s := getBenchSetup(b)
	anytime := exp.AnytimeExpansions(s.Scale)
	limits := []struct {
		name string
		exp  int
	}{
		{"Pinf", 0},
		{"P1", anytime[0]},
		{"P5", anytime[1]},
		{"P10", anytime[2]},
	}
	for _, cat := range exp.Categories(s.Scale) {
		for _, limit := range limits {
			b.Run(fmt.Sprintf("dist=%s/limit=%s", cat, limit.name), func(b *testing.B) {
				q, budget := benchQuery(b, s, cat)
				seed, _, err := routing.MeanCostPath(s.Graph, s.KB, q.Source, q.Dest)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{
						Budget:        budget,
						MaxExpansions: limit.exp,
						SeedPath:      seed,
					})
					if err != nil {
						b.Fatal(err)
					}
					_ = res
				}
			})
		}
	}
}

// BenchmarkE6Efficiency regenerates the Efficiency table's measurement:
// mean full-search PBR runtime per distance category.
func BenchmarkE6Efficiency(b *testing.B) {
	s := getBenchSetup(b)
	for _, cat := range exp.Categories(s.Scale) {
		b.Run(fmt.Sprintf("dist=%s", cat), func(b *testing.B) {
			q, budget := benchQuery(b, s, cat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{
					Budget: budget,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7Ablation measures the search cost with each pruning (and
// classifier mode) ablated — the prunings internal/routing/doc.go
// states the invariants of.
func BenchmarkE7Ablation(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	cat := cats[len(cats)/2]
	variants := []struct {
		name string
		opts routing.Options
		mode hybrid.ClassifierMode
	}{
		{"full", routing.Options{}, hybrid.Auto},
		{"no-potential", routing.Options{DisablePotentialPruning: true}, hybrid.Auto},
		{"no-pivot", routing.Options{DisablePivotPruning: true}, hybrid.Auto},
		{"no-dominance", routing.Options{DisableDominancePruning: true}, hybrid.Auto},
		{"always-convolve", routing.Options{}, hybrid.AlwaysConvolve},
		{"always-estimate", routing.Options{}, hybrid.AlwaysEstimate},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			q, budget := benchQuery(b, s, cat)
			prev := s.Model.Mode
			s.Model.Mode = v.mode
			defer func() { s.Model.Mode = prev }()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := v.opts
				opts.Budget = budget
				if _, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8AnytimeCurve measures one point of the anytime
// quality/effort curve (a capped PBR query on the longest category).
func BenchmarkE8AnytimeCurve(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)-1])
	seed, _, err := routing.MeanCostPath(s.Graph, s.KB, q.Source, q.Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{
			Budget:        budget,
			MaxExpansions: 400,
			SeedPath:      seed,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingPBR measures one full hybrid-model PBR query with
// allocation reporting — the kernel-efficiency benchmark of the
// distribution pipeline. Run with -benchmem to watch allocs/op; the
// pooled search workspace (labels, heap, frontiers, hist.Arena) is
// what keeps this number flat as budgets grow.
func BenchmarkRoutingPBR(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{
			Budget: budget,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoutingPBRTraced is BenchmarkRoutingPBR under a sampled
// trace: every iteration runs inside a fresh always-sampled root span,
// so PBRCtx records its potentials/seed-path/expand phase spans and the
// finished trace lands in a span store. The delta against
// BenchmarkRoutingPBR is the full per-query cost of span tracing — a
// handful of small allocations (trace, root, three phase spans, attrs);
// TestRouteSteadyStateAllocs holds the ceiling.
func BenchmarkRoutingPBRTraced(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	tracer := obs.NewTracer(obs.NewSpanStore(64, 0), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, root := tracer.StartBackground("bench", "bench-req")
		if _, err := routing.PBRCtx(ctx, s.Graph, s.Model, q.Source, q.Dest, routing.Options{
			Budget: budget,
		}); err != nil {
			b.Fatal(err)
		}
		tracer.Finish(root)
	}
}

// BenchmarkRoutingPBRTimeExpanded is BenchmarkRoutingPBR with
// per-extension slice lookup engaged (on a 1-slice set, so the answer
// is identical and the cost difference is pure mode overhead: one mean
// computation per generated label plus the per-slice frontier keying).
// The allocation count must stay within a few percent of
// BenchmarkRoutingPBR — the mode adds arithmetic, not allocations.
func BenchmarkRoutingPBRTimeExpanded(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	set := hybrid.SingleModelSet(s.Model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(s.Graph, set.TimeExpandedCoster(0, nil), q.Source, q.Dest, routing.Options{
			Budget:       budget,
			TimeExpanded: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParetoRoutes measures stochastic-skyline enumeration.
func BenchmarkParetoRoutes(b *testing.B) {
	s := getBenchSetup(b)
	cats := exp.Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.ParetoRoutes(s.Graph, s.Model, q.Source, q.Dest, routing.ParetoOptions{
			Horizon: budget * 1.5,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridExtend measures the core cost-model step: one hybrid
// extension (classifier + estimation or convolution).
func BenchmarkHybridExtend(b *testing.B) {
	s := getBenchSetup(b)
	pairs := s.Obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		b.Skip("no pairs")
	}
	virtuals := make([]*hist.Hist, len(pairs))
	for i, k := range pairs {
		virtuals[i] = s.Model.InitialHist(k.First)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := pairs[i%len(pairs)]
		_ = s.Model.Extend(virtuals[i%len(pairs)], k.First, k.Second)
	}
}

// BenchmarkPathCost measures the iterative virtual-edge path-cost
// computation on a 10-edge path.
func BenchmarkPathCost(b *testing.B) {
	s := getBenchSetup(b)
	qs := s.Queries[exp.Categories(s.Scale)[len(exp.Categories(s.Scale))-1].String()]
	if len(qs) == 0 {
		b.Skip("no queries")
	}
	path, _, err := routing.MeanCostPath(s.Graph, s.KB, qs[0].Source, qs[0].Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.PathCost(s.Model, path); err != nil {
			b.Fatal(err)
		}
	}
}

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
	cfg.Hybrid.Width = e.Model().Width()
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

// BenchmarkDominance measures the stochastic-dominance comparison used by
// pruning (d).
func BenchmarkDominance(b *testing.B) {
	x := hist.Uniform(100, 2, 128)
	y := hist.Uniform(102, 2, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = hist.CompareCDF(x, y)
	}
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

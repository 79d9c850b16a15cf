package exp

import (
	"fmt"
	"io"
	"testing"

	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// One benchmark per table/figure of the paper's evaluation (the E1–E8
// section banners are the experiment index), plus the search and cost
// kernels timed on the same substrate. They run on the Small setup so
// `go test -bench=.` completes in minutes; cmd/experiments regenerates
// the full tables at medium/large scale.

// BenchmarkE1Motivating regenerates the paper's airport table (travel
// time distributions of two paths, deadline 60 minutes).
func BenchmarkE1Motivating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunMotivating(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Convolution regenerates the convolution-vs-ground-truth
// worked example (T1/T2 observations, H1 ⊗ H2 vs truth, KL divergence).
func BenchmarkE2Convolution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunConvVsTruth(nil, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3DependenceScan measures the chi-square dependence test that
// produces the "≈75% of edge pairs with data are dependent" statistic.
func BenchmarkE3DependenceScan(b *testing.B) {
	s := smallSetup(b)
	store := s.Engine.Observations()
	pairs := store.PairsWithSupport(20)
	if len(pairs) == 0 {
		b.Skip("no pairs")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := pairs[i%len(pairs)]
		_, _ = store.DependenceTest(k) // constant sides may error; that is part of the scan
	}
}

// BenchmarkE4TrainEval measures the KL evaluation of the trained hybrid
// model against ground truth (the 1000-test-pair protocol, scaled to 50
// pairs per iteration).
func BenchmarkE4TrainEval(b *testing.B) {
	s := smallSetup(b)
	model, store := s.Engine.SliceModel(0), s.Engine.Observations()
	pairs := store.PairsWithSupport(20)
	if len(pairs) > 50 {
		pairs = pairs[:50]
	}
	oracle := hybrid.WorldOracle{World: s.Engine.World()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.Evaluate(model, store, oracle, pairs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuery returns a deterministic query in the given band plus its
// slack budget.
func benchQuery(b *testing.B, s *Setup, cat netgen.DistanceCategory) (netgen.Query, float64) {
	b.Helper()
	qs := s.Queries[cat.String()]
	if len(qs) == 0 {
		b.Skipf("no queries in %s", cat)
	}
	q := qs[0]
	optimistic, err := s.Engine.OptimisticTime(q.Source, q.Dest)
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	anytime := AnytimeExpansions(s.Scale)
	limits := []struct {
		name string
		exp  int
	}{
		{"Pinf", 0},
		{"P1", anytime[0]},
		{"P5", anytime[1]},
		{"P10", anytime[2]},
	}
	for _, cat := range Categories(s.Scale) {
		for _, limit := range limits {
			b.Run(fmt.Sprintf("dist=%s/limit=%s", cat, limit.name), func(b *testing.B) {
				q, budget := benchQuery(b, s, cat)
				seed, _, err := s.Engine.MeanRoute(q.Source, q.Dest)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := routing.PBR(g, model, q.Source, q.Dest, routing.Options{
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	for _, cat := range Categories(s.Scale) {
		b.Run(fmt.Sprintf("dist=%s", cat), func(b *testing.B) {
			q, budget := benchQuery(b, s, cat)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := routing.PBR(g, model, q.Source, q.Dest, routing.Options{
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	cats := Categories(s.Scale)
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
			variant := *model
			variant.Mode = v.mode
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				opts := v.opts
				opts.Budget = budget
				if _, err := routing.PBR(g, &variant, q.Source, q.Dest, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8AnytimeCurve measures one point of the anytime
// quality/effort curve (a capped PBR query on the longest category).
func BenchmarkE8AnytimeCurve(b *testing.B) {
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	cats := Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)-1])
	seed, _, err := s.Engine.MeanRoute(q.Source, q.Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(g, model, q.Source, q.Dest, routing.Options{
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	cats := Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(g, model, q.Source, q.Dest, routing.Options{
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	cats := Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	tracer := obs.NewTracer(obs.NewSpanStore(64, 0), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, root := tracer.StartBackground("bench", "bench-req")
		if _, err := routing.PBRCtx(ctx, g, model, q.Source, q.Dest, routing.Options{
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
	s := smallSetup(b)
	g, model := s.Engine.Graph(), s.Engine.SliceModel(0)
	cats := Categories(s.Scale)
	q, budget := benchQuery(b, s, cats[len(cats)/2])
	set := hybrid.SingleModelSet(model)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routing.PBR(g, set.TimeExpandedCoster(0, nil), q.Source, q.Dest, routing.Options{
			Budget:       budget,
			TimeExpanded: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridExtend measures the core cost-model step: one hybrid
// extension (classifier + estimation or convolution).
func BenchmarkHybridExtend(b *testing.B) {
	s := smallSetup(b)
	model, kb, store := s.Engine.SliceModel(0), s.Engine.SliceKnowledgeBase(0), s.Engine.Observations()
	pairs := store.PairsWithSupport(20)
	if len(pairs) == 0 {
		b.Skip("no pairs")
	}
	var scratch hybrid.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := pairs[i%len(pairs)]
		_ = model.ExtendInto(&scratch, kb.Edge(k.First).Marginal, k.First, k.Second)
		scratch.Reset()
	}
}

// BenchmarkPathCost measures the iterative virtual-edge path-cost
// computation on a 10-edge path.
func BenchmarkPathCost(b *testing.B) {
	s := smallSetup(b)
	model := s.Engine.SliceModel(0)
	qs := s.Queries[Categories(s.Scale)[len(Categories(s.Scale))-1].String()]
	if len(qs) == 0 {
		b.Skip("no queries")
	}
	path, _, err := s.Engine.MeanRoute(qs[0].Source, qs[0].Dest)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := hybrid.PathCost(model, path); err != nil {
			b.Fatal(err)
		}
	}
}

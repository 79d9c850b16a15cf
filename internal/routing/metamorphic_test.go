package routing

import (
	"fmt"
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
)

// TestBudgetLadderMetamorphic states three properties that need no
// oracle, on a small grid under convolution with no bucket cap and a
// ladder of eight budgets per query:
//
//   - the best on-time probability never falls as the budget grows;
//   - ALT potentials from float32 tables with 1, 4 and 8 landmarks return
//     the path and Prob bits of exact potentials at every rung;
//   - a search seeded with the query's mean-cost path (SwitchMargin 0)
//     answers a Prob at least the unseeded one and at least the seed's
//     own on-time probability.
//
// All hold for classic queries and for time-expanded ones departing
// just before the slice boundary. The frontier is large enough never to
// evict, so only the search's exact prunings act. The ladder starts at
// the optimistic time: below it every path has probability 0, and which
// of those ties is returned depends on the expansion order, which
// potentials are free to change.
func TestBudgetLadderMetamorphic(t *testing.T) {
	g, set := testModelSet(t)
	models := make([]*hybrid.Model, set.K())
	for s := range models {
		models[s] = &hybrid.Model{KB: set.At(s).KB} // no estimator: every extension convolves
	}
	uncapped, err := hybrid.NewModelSet(models)
	if err != nil {
		t.Fatal(err)
	}
	classic := &hybrid.ConvolutionCoster{KB: models[1].KB}
	const depart = 43150.0 // 50 s before the K = 2 boundary
	kinds := []struct {
		name     string
		expanded bool
		metric   WeightFunc
		coster   func() hybrid.Coster
		seedKB   *hybrid.KnowledgeBase // the mean-cost seed's edge means: the departure slice's
		pathCost func([]graph.EdgeID) (*hist.Hist, error)
	}{
		{"classic", false, classic.MinEdgeTime, func() hybrid.Coster { return classic }, models[1].KB,
			func(p []graph.EdgeID) (*hist.Hist, error) { return hybrid.PathCost(classic, p) }},
		{"time-expanded", true, uncapped.MinEdgeTimeAcrossSlices, func() hybrid.Coster { return uncapped.TimeExpandedCoster(depart, nil) }, models[0].KB,
			func(p []graph.EdgeID) (*hist.Hist, error) {
				h, _, err := hybrid.PathCostElapsed(uncapped.TimeExpandedCoster(depart, nil), p)
				return h, err
			}},
	}
	queries, err := netgen.NewWorkloadGen(g, 17).SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.2}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range kinds {
		var alts []*ALT
		for _, l := range []int{1, 4, 8} {
			alt, err := BuildALT(g, kind.metric, SelectLandmarks(g, nil, l))
			if err != nil {
				t.Fatal(err)
			}
			alts = append(alts, alt)
		}
		rose := false
		for qi, q := range queries {
			_, optimistic, err := Dijkstra(g, kind.metric, q.Source, q.Dest)
			if err != nil {
				t.Fatal(err)
			}
			seed, _, err := MeanCostPath(g, kind.seedKB, q.Source, q.Dest)
			if err != nil {
				t.Fatal(err)
			}
			seedDist, err := kind.pathCost(seed)
			if err != nil {
				t.Fatal(err)
			}
			prev := math.Inf(-1)
			for rung := 0; rung < 8; rung++ {
				opts := Options{
					Budget:       optimistic * (1 + 0.1*float64(rung)),
					Departure:    depart,
					TimeExpanded: kind.expanded,
					maxFrontier:  1 << 16,
				}
				exact, err := PBR(g, kind.coster(), q.Source, q.Dest, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s query %d, budget %v", kind.name, qi, opts.Budget)
				if !exact.Complete {
					t.Fatalf("%s: search incomplete", label)
				}
				if exact.Prob < prev {
					t.Fatalf("%s: best probability %v fell from %v at the rung below", label, exact.Prob, prev)
				}
				rose = rose || exact.Prob > prev && rung > 0
				prev = exact.Prob
				seededOpts := opts
				seededOpts.SeedPath = seed
				seeded, err := PBR(g, kind.coster(), q.Source, q.Dest, seededOpts)
				if err != nil {
					t.Fatal(err)
				}
				if seedProb := seedDist.CDF(opts.Budget); seeded.Prob < exact.Prob || seeded.Prob < seedProb {
					t.Errorf("%s: seeded with the mean-cost path, Prob %v is below the unseeded %v or the seed's own %v", label, seeded.Prob, exact.Prob, seedProb)
				}
				for i, alt := range alts {
					opts.Potentials = alt
					withALT, err := PBR(g, kind.coster(), q.Source, q.Dest, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireSameRoute(t, fmt.Sprintf("%s, ALT %d", label, i), exact, withALT)
				}
			}
		}
		if !rose {
			t.Errorf("%s: the probability never rose along any ladder; the rungs are too far apart to test anything", kind.name)
		}
	}
}

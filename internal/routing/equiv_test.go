package routing

import (
	"fmt"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// plainView hides a coster's ScratchCoster capability, so PBR takes
// it in through heapCoster like any plain Coster. The goldens and the
// test below run the same query both ways and demand bit-identical
// results.
type plainView struct {
	c hybrid.Coster
}

func (p plainView) InitialHist(e graph.EdgeID) *hist.Hist { return p.c.InitialHist(e) }
func (p plainView) Extend(v *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	return p.c.Extend(v, lastEdge, next)
}
func (p plainView) MinEdgeTime(e graph.EdgeID) float64 { return p.c.MinEdgeTime(e) }
func (p plainView) Width() float64                     { return p.c.Width() }

// requireEqualResults asserts two PBR results are the same search:
// identical route, bit-identical probability and distribution, and
// identical telemetry.
func requireEqualResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Found != b.Found || a.Complete != b.Complete {
		t.Fatalf("%s: found/complete %v/%v vs %v/%v", label, a.Found, a.Complete, b.Found, b.Complete)
	}
	if a.Prob != b.Prob {
		t.Fatalf("%s: prob %v vs %v (not bit-equal)", label, a.Prob, b.Prob)
	}
	if len(a.Path) != len(b.Path) {
		t.Fatalf("%s: path lengths %d vs %d", label, len(a.Path), len(b.Path))
	}
	for i := range a.Path {
		if a.Path[i] != b.Path[i] {
			t.Fatalf("%s: path[%d] = %d vs %d", label, i, a.Path[i], b.Path[i])
		}
	}
	if (a.Dist == nil) != (b.Dist == nil) {
		t.Fatalf("%s: dist nil mismatch", label)
	}
	if a.Dist != nil {
		if a.Dist.Min != b.Dist.Min || a.Dist.Width != b.Dist.Width || len(a.Dist.P) != len(b.Dist.P) {
			t.Fatalf("%s: dist shape mismatch", label)
		}
		for i := range a.Dist.P {
			if a.Dist.P[i] != b.Dist.P[i] {
				t.Fatalf("%s: dist P[%d] %v vs %v", label, i, a.Dist.P[i], b.Dist.P[i])
			}
		}
	}
	if a.Expansions != b.Expansions || a.GeneratedLabels != b.GeneratedLabels ||
		a.PrunedPotential != b.PrunedPotential || a.PrunedPivot != b.PrunedPivot ||
		a.PrunedDominance != b.PrunedDominance {
		t.Fatalf("%s: telemetry mismatch:\n  scratch: exp=%d gen=%d pot=%d piv=%d dom=%d\n  plain:   exp=%d gen=%d pot=%d piv=%d dom=%d",
			label,
			a.Expansions, a.GeneratedLabels, a.PrunedPotential, a.PrunedPivot, a.PrunedDominance,
			b.Expansions, b.GeneratedLabels, b.PrunedPotential, b.PrunedPivot, b.PrunedDominance)
	}
}

// TestPBRScratchKernelEquivalence runs randomized graphs, budgets and
// search options with the convolution coster extending straight into
// the arena and with the same coster as a plain Coster, its heap
// results copied in by heapCoster, and demands bit-identical routes,
// probabilities, distributions and telemetry: ExtendInto ≡ Extend at
// search level, and the copy changes nothing.
func TestPBRScratchKernelEquivalence(t *testing.T) {
	for _, seed := range []uint64{3, 11, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			netCfg := netgen.DefaultConfig()
			netCfg.Rows = 7 + int(seed%5)
			netCfg.Cols = 8 + int(seed%3)
			netCfg.CellMeters = 140
			netCfg.Seed = seed
			g, err := netgen.Generate(netCfg)
			if err != nil {
				t.Fatal(err)
			}
			worldCfg := traj.DefaultWorldConfig()
			worldCfg.Seed = seed + 1
			world, err := traj.NewWorld(g, worldCfg)
			if err != nil {
				t.Fatal(err)
			}
			trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
				NumTrajectories: 1200, MinEdges: 4, MaxEdges: 12, Seed: seed + 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			obs := traj.NewObservationStore(g, worldCfg.BucketWidth)
			obs.Collect(trajs)
			kb, err := hybrid.BuildKnowledgeBase(g, obs, worldCfg.BucketWidth, 10)
			if err != nil {
				t.Fatal(err)
			}
			coster := &hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 256}
			if _, ok := hybrid.Coster(coster).(hybrid.ScratchCoster); !ok {
				t.Fatal("ConvolutionCoster lost the scratch capability")
			}

			wg := netgen.NewWorkloadGen(g, seed+3)
			queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.4}, 4)
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				_, optimistic, err := Dijkstra(g, kb.MinEdgeTime, q.Source, q.Dest)
				if err != nil {
					t.Fatal(err)
				}
				for _, factor := range []float64{1.05, 1.3, 1.7} {
					opts := Options{Budget: factor * optimistic}
					// Vary the search shape too: seeded pivot and an
					// anytime cutoff at one budget point each.
					if factor == 1.3 {
						if seedPath, _, err := MeanCostPath(g, kb, q.Source, q.Dest); err == nil {
							opts.SeedPath = seedPath
						}
					}
					if factor == 1.7 {
						opts.MaxExpansions = 150
					}
					scratchRes, err := PBR(g, coster, q.Source, q.Dest, opts)
					if err != nil {
						t.Fatal(err)
					}
					plainRes, err := PBR(g, plainView{coster}, q.Source, q.Dest, opts)
					if err != nil {
						t.Fatal(err)
					}
					requireEqualResults(t,
						fmt.Sprintf("query %d factor %v", qi, factor),
						scratchRes, plainRes)
				}
			}
		})
	}
}

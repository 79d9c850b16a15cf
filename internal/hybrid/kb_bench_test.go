package hybrid

import (
	"runtime"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/traj"
)

// BenchmarkBuildKnowledgeBase builds the knowledge base of a network
// most of which was driven (dense: one slice of the goldens' substrate)
// and of one most of which was not (sparse: 94 % of 45 000 edges have
// no observation, so their marginals are priors). Beside the usual
// -benchmem columns it reports the distinct marginals of the result
// (EdgeCoverage) and the heap bytes it retains.
func BenchmarkBuildKnowledgeBase(b *testing.B) {
	run := func(g *graph.Graph, obs *traj.ObservationStore, width float64) func(*testing.B) {
		return func(b *testing.B) {
			var kb *KnowledgeBase
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ReportAllocs()
			for b.Loop() {
				var err error
				if kb, err = BuildKnowledgeBase(g, obs, width, 10); err != nil {
					b.Fatal(err)
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			_, _, distinct := kb.EdgeCoverage()
			b.ReportMetric(float64(distinct), "marginals")
			b.ReportMetric(float64(after.HeapAlloc)-float64(before.HeapAlloc), "retained-B")
		}
	}
	g, stores, width := goldenSubstrate(b)
	b.Run("dense", run(g, stores[1], width))
	g, obs, width := sparseSubstrate(b)
	b.Run("sparse", run(g, obs, width))
}

// BenchmarkTrainSlices trains four slice models over the sparse network
// — a few dozen commuter routes driven 6 000 times, everything else
// priors: the shape of a serving generation's build, where each slice's
// knowledge base covers 45 000 edges and its training set a few hundred
// pairs. The slices train concurrently, which -cpu 1,2 shows.
func BenchmarkTrainSlices(b *testing.B) {
	const slices = 4
	ncfg, wcfg := sparseConfigs()
	g, trajs := walkedSubstrate(b, ncfg, wcfg, traj.WalkConfig{
		NumTrajectories: 6000, MinEdges: 4, MaxEdges: 20, Seed: 34,
		RouteFraction: 0.95, NumRoutes: 60, RouteJitter: 0.2, Slices: slices,
	})
	cfg := quickSlicedConfig(wcfg.BucketWidth, slices)
	stores := traj.CollectSlices(g, cfg.Width, slices, trajs)
	bySlice := traj.SplitBySlice(trajs, slices)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := TrainSlices(g, stores, bySlice, nil, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

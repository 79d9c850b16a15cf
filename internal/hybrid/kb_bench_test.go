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
	g, sobs, width := goldenSubstrate(b)
	b.Run("dense", run(g, sobs.Slice(1), width))
	g, obs, width := sparseSubstrate(b)
	b.Run("sparse", run(g, obs, width))
}

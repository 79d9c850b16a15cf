package routing

import (
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/traj"
)

// metricBits reads a metric's bits, edge by edge.
func metricBits(g *graph.Graph, w WeightFunc) []uint64 {
	out := make([]uint64, g.NumEdges())
	for e := range out {
		out[e] = math.Float64bits(w(graph.EdgeID(e)))
	}
	return out
}

// congestedKB is a knowledge base over g from a world whose fastest mode
// never occurs, so its minimum times differ from those of a free-flowing
// world's.
func congestedKB(t *testing.T, g *graph.Graph) *hybrid.KnowledgeBase {
	t.Helper()
	cfg := traj.DefaultWorldConfig()
	cfg.NoiseProb = 0
	cfg.ModePrior = []float64{0, 0.5, 0.5}
	world, err := traj.NewWorld(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{NumTrajectories: 1200, MinEdges: 4, MaxEdges: 12, Seed: 30})
	if err != nil {
		t.Fatal(err)
	}
	obs := traj.NewObservationStore(g, cfg.BucketWidth)
	obs.Collect(trajs)
	kb, err := hybrid.BuildKnowledgeBase(g, obs, cfg.BucketWidth, 10)
	if err != nil {
		t.Fatal(err)
	}
	return kb
}

func equalBits(x, y []uint64) bool {
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}

// TestALTSetSharesBitEqualMetrics: on four-slice sets over two knowledge
// bases, any two of the five metrics — the four slices' and the min
// across them — share one table exactly when they are equal bit for
// bit, the set holds
// one table per distinct metric, and every potential of every table,
// over all vertices and several destinations, has the bits of a fresh
// BuildALT on that table's metric.
func TestALTSetSharesBitEqualMetrics(t *testing.T) {
	g, two := testModelSet(t)
	a := two.At(0)
	b := &hybrid.Model{KB: congestedKB(t, g), MaxBuckets: a.MaxBuckets}
	// A second Model over a knowledge base: a distinct slice model with
	// the same metric.
	over := func(m *hybrid.Model) *hybrid.Model { return &hybrid.Model{KB: m.KB, MaxBuckets: m.MaxBuckets} }
	if equalBits(metricBits(g, a.MinEdgeTime), metricBits(g, b.MinEdgeTime)) {
		t.Fatal("the fixture's two knowledge bases have one metric; the test needs two")
	}
	for _, tc := range []struct {
		name     string
		models   []*hybrid.Model
		distinct int
	}{
		// Slices 0, 1 and 3 share, slice 2 has a table of its own, and the
		// min across shares the table whose metric its bits match, if any.
		{"A A B A", []*hybrid.Model{a, over(a), b, over(a)}, -1},
		// The min across four equal metrics is that metric: one table.
		{"A A A A", []*hybrid.Model{a, over(a), over(a), over(a)}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			set, err := hybrid.NewModelSet(tc.models)
			if err != nil {
				t.Fatal(err)
			}
			alt, err := NewALTSet(g, set, 6)
			if err != nil {
				t.Fatal(err)
			}
			metrics := []WeightFunc{set.At(0).MinEdgeTime, set.At(1).MinEdgeTime, set.At(2).MinEdgeTime, set.At(3).MinEdgeTime, set.MinEdgeTimeAcrossSlices}
			tables := []*ALT{alt.Slice(0), alt.Slice(1), alt.Slice(2), alt.Slice(3), alt.Min()}
			bits := make([][]uint64, len(metrics))
			for i, m := range metrics {
				bits[i] = metricBits(g, m)
			}
			distinct := 0
			for i := range tables {
				first := true
				for j := range i {
					if shared, equal := tables[i] == tables[j], equalBits(bits[i], bits[j]); shared != equal {
						t.Errorf("tables %d and %d: shared %v, metrics equal bit for bit %v", i, j, shared, equal)
					}
					if equalBits(bits[i], bits[j]) {
						first = false
					}
				}
				if first {
					distinct++
				}
			}
			if tc.distinct >= 0 && distinct != tc.distinct {
				t.Fatalf("%d distinct metrics, want %d", distinct, tc.distinct)
			}
			if got := len(alt.Tables()); got != distinct {
				t.Errorf("Tables() holds %d tables for %d distinct metrics", got, distinct)
			}
			for i, m := range metrics {
				fresh, err := BuildALT(g, m, alt.Landmarks())
				if err != nil {
					t.Fatal(err)
				}
				for _, dest := range []graph.VertexID{0, graph.VertexID(g.NumVertices() / 3), graph.VertexID(g.NumVertices() - 1)} {
					got, relGot := tables[i].Potentials(dest)
					want, relWant := fresh.Potentials(dest)
					for v := range g.NumVertices() {
						if x, y := got(graph.VertexID(v)), want(graph.VertexID(v)); math.Float64bits(x) != math.Float64bits(y) {
							t.Fatalf("table %d, dest %d, vertex %d: potential %v, a fresh BuildALT gives %v", i, dest, v, x, y)
						}
					}
					relGot()
					relWant()
				}
			}
		})
	}
}

// TestSameBitsComparesEveryEdge: two metrics share a table only when
// every edge's weight has the same bits — the first edge and the last
// count alike, and +0 and −0 are different weights.
func TestSameBitsComparesEveryEdge(t *testing.T) {
	x := []float64{1, 2, 0, 4}
	if !sameBits(x, []float64{1, 2, 0, 4}) {
		t.Error("equal metrics compare unequal")
	}
	for _, y := range [][]float64{{9, 2, 0, 4}, {1, 2, 0, 5}, {1, 2, math.Copysign(0, -1), 4}} {
		if sameBits(x, y) {
			t.Errorf("%v and %v compare equal", x, y)
		}
	}
}

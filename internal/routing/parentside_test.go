package routing

import (
	"math"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// TestExtensionIsAtLeastParentShifted states the property the search's
// parent-side prunings rest on (hybrid.Coster.MinEdgeTime's contract):
// whatever the cost model does over an edge — convolve, estimate, cap,
// and the search's own truncation at 1.3 × budget on top — the child
// is, in distribution, no earlier than its parent shifted by m, the
// edge's MinEdgeTime (MinEdgeTimeWithin under time-expanded lookup):
//
//	child.Min >= parent.Min + m
//	child.CDFShifted(B, h) <= parent.CDFShifted(B, m+h)    for every h >= 0
//
// so a parent that fails the potential or the pivot test shifted by
// m + h has a child that fails it shifted by h. The first line is exact.
// The second holds up to 1e-9: an estimate is renormalised by
// TrimInPlace after buckets below 1e-12 were dropped, which scales the
// kept prefix up by a few parts in 1e12, and the two prefix sums round
// independently. That slack cannot cost optimality — a child whose
// upper bound is within 1e-9 of the pivot's probability cannot lead to
// an answer better than the pivot by more than that.
//
// Parents are random, not search labels: 1–200 buckets, flat or with a
// tail that decays into dust, some already truncated at 1.3 × B, all
// capped the way the coster under test caps (a search label has been
// through the same cap; the property needs that and nothing else from
// the parent).
func TestExtensionIsAtLeastParentShifted(t *testing.T) {
	f := trainedFixture(t)
	g := f.g
	// The peaked slice and the one after it: their knowledge bases
	// disagree, so the K = 2 set below changes bounds across its boundary.
	base := [2]*hybrid.Model{f.set.At(1), f.set.At(2)}
	width := base[0].Width()

	var adjacent, withData [][2]graph.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		last := graph.EdgeID(e)
		for _, next := range g.Out(g.Edge(last).To) {
			adjacent = append(adjacent, [2]graph.EdgeID{last, next})
			if _, ok := base[0].KB.Pair(last, next); ok {
				withData = append(withData, [2]graph.EdgeID{last, next})
			}
		}
	}
	if len(withData) == 0 {
		t.Fatal("fixture has no pair with data: nothing would be estimated")
	}

	r := rng.New(2101)
	randomParent := func() *hist.Hist {
		p := make([]float64, 1+r.Intn(200))
		decay := 1.0
		if r.Bool(0.5) {
			decay = r.Range(0.75, 0.99)
		}
		scale := 1.0
		for i := range p {
			if !r.Bool(0.2) { // one bucket in five stays empty
				p[i] = r.Float64() * scale
			}
			scale *= decay
		}
		p[r.Intn(len(p))] += 0.05
		return hist.New(width*float64(r.Intn(300)), width, p).Normalize()
	}

	var qs hybrid.QueryStats
	var s hybrid.Scratch
	sliceSeen := [2]int{}
	decided := 0 // trials where the parent-side pivot bound is neither 0 nor 1
	for _, maxBuckets := range []int{0, 16, 512} {
		model := func(i int, mode hybrid.ClassifierMode) *hybrid.Model {
			return &hybrid.Model{KB: base[i].KB, Estimator: base[i].Estimator, Classifier: base[i].Classifier, Mode: mode, MaxBuckets: maxBuckets}
		}
		set, err := hybrid.NewModelSet([]*hybrid.Model{model(0, hybrid.Auto), model(1, hybrid.Auto)})
		if err != nil {
			t.Fatal(err)
		}
		classic := []struct {
			name string
			c    hybrid.ScratchCoster
		}{
			{"convolution", &hybrid.ConvolutionCoster{KB: base[0].KB, MaxBuckets: maxBuckets}},
			{"hybrid", model(0, hybrid.Auto).WithStats(&qs).(hybrid.ScratchCoster)},
			{"always-estimate", model(0, hybrid.AlwaysEstimate).WithStats(&qs).(hybrid.ScratchCoster)},
		}
		for trial := 0; trial < 400; trial++ {
			parent := randomParent().CapBucketsInPlace(maxBuckets)
			// Budgets from below the parent's support to beyond it, the
			// remaining-cost bound h from 0 up; half the trials on the
			// grid, where every label of a real search sits.
			span := float64(len(parent.P))*width + 60
			budget := parent.Min + r.Range(-0.1, 1.2)*span
			h := math.Max(0, r.Range(-0.2, 0.6)*span)
			if r.Bool(0.5) {
				budget = math.Max(width, math.Round(budget/width)*width)
				h = math.Round(h/width) * width
			}
			budget = math.Max(budget, 1)
			truncateAt := 1.3 * budget
			if r.Bool(0.3) {
				parent.TruncateAboveInPlace(truncateAt)
			}
			pair := adjacent[r.Intn(len(adjacent))]
			if r.Bool(0.5) {
				pair = withData[r.Intn(len(withData))]
			}
			last, next := pair[0], pair[1]

			check := func(name string, m float64, child *hist.Hist) {
				t.Helper()
				child.TruncateAboveInPlace(truncateAt)
				if child.Min < parent.Min+m {
					t.Fatalf("%s, MaxBuckets %d, trial %d, edges %d→%d: child.Min %v < parent.Min %v + m %v",
						name, maxBuckets, trial, last, next, child.Min, parent.Min, m)
				}
				if parent.Min+m+h > budget && !(child.Min+h > budget) {
					t.Fatalf("%s, MaxBuckets %d, trial %d: parent-side potential test fires, the child's does not", name, maxBuckets, trial)
				}
				cub, pub := child.CDFShifted(budget, h), parent.CDFShifted(budget, m+h)
				if cub > pub+1e-9 {
					t.Fatalf("%s, MaxBuckets %d, trial %d, edges %d→%d, B %v h %v m %v: child bound %v > parent-side bound %v",
						name, maxBuckets, trial, last, next, budget, h, m, cub, pub)
				}
				if pub > 0 && pub < 1 {
					decided++
				}
			}
			for _, cc := range classic {
				check(cc.name, cc.c.MinEdgeTime(next), cc.c.ExtendInto(&s, parent, last, next))
			}
			// Time-expanded, as the search calls it: the slice comes from
			// the label's mean clamped to the horizon, the bound from
			// every slice reachable within it. Departures put the mean
			// either side of the K = 2 boundary.
			hlim := truncateAt + width
			elapsed := math.Min(parent.Mean(), hlim)
			tc := set.TimeExpandedCoster(traj.SliceStart(1, 2)-r.Range(0, 2)*elapsed, &qs)
			sliceSeen[tc.SliceAtElapsed(elapsed)]++
			check("time-expanded", tc.MinEdgeTimeWithin(next, hlim), tc.ExtendElapsedInto(&s, elapsed, parent, last, next))
			s.Reset()
		}
	}
	if qs.Convolved == 0 || qs.Estimated == 0 {
		t.Errorf("decisions convolved=%d estimated=%d: want both", qs.Convolved, qs.Estimated)
	}
	if sliceSeen[0] == 0 || sliceSeen[1] == 0 {
		t.Errorf("time-expanded extensions per slice %v: want both sides of the boundary", sliceSeen)
	}
	if decided < 1000 {
		t.Errorf("only %d trials put the parent-side bound strictly between 0 and 1", decided)
	}
}

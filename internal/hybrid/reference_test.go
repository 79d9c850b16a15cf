package hybrid

import (
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/israce"
	"stochroute/internal/ml"
	"stochroute/internal/traj"
)

// The reference below is the heap form of the cost step this package
// ran before the arena form became its only implementation: the hybrid
// extension, the estimator's step and its prediction, and the band
// partition, each allocating what it returns. The two helpers that form
// shared with the arena kernel are expanded to their original,
// independent bodies — the band accumulation inline, and a partition
// that copies each band instead of aliasing it — so nothing the tests
// compare against is the code under test. The tests pin the arena
// kernel, and every caller that costs a path with it, to this reference
// bit for bit.

func refInitialHist(kb *KnowledgeBase, e graph.EdgeID) *hist.Hist {
	return kb.Edge(e).Marginal.Clone()
}

// refExtend is the hybrid step, reporting which way the decision went.
func refExtend(m *Model, virtual *hist.Hist, lastEdge, next graph.EdgeID) (out *hist.Hist, estimated bool) {
	ps, has := m.KB.Pair(lastEdge, next)
	if m.shouldEstimate(ps, has) {
		estimated = true
		out = refEstimateExtend(m.Estimator, m.KB, virtual, next, ps, has)
	} else {
		out = hist.MustConvolve(virtual, m.KB.Edge(next).Marginal)
	}
	if m.MaxBuckets > 0 {
		out.CapBucketsInPlace(m.MaxBuckets)
	}
	return out, estimated
}

// refConvolutionExtend is the baseline's step.
func refConvolutionExtend(c *ConvolutionCoster, virtual *hist.Hist, next graph.EdgeID) *hist.Hist {
	out := hist.MustConvolve(virtual, c.KB.Edge(next).Marginal)
	if c.MaxBuckets > 0 {
		out.CapBucketsInPlace(c.MaxBuckets)
	}
	return out
}

// refEstimateExtend combines the virtual distribution with the outgoing
// edge using the band-conditional predictions: Σ_bands (virtual|band) ⊗
// conditional(band).
func refEstimateExtend(e *Estimator, kb *KnowledgeBase, virtual *hist.Hist, next graph.EdgeID, ps PairStats, hasPair bool) *hist.Hist {
	feats := Features(kb, virtual, next, ps, hasPair)
	conds := refPredict(e, feats)
	parts := refBandWeights(virtual, e.Cfg.Bands)
	base2 := kb.Edge(next).MinTime
	width := kb.Width

	// Common output grid: min = virtual.Min + base2; the largest index
	// is (len(virtual)-1) + (CondBuckets-1).
	outLen := len(virtual.P) + e.Cfg.CondBuckets - 1
	out := make([]float64, outLen)
	outMin := virtual.Min + base2
	for b, part := range parts {
		if part.Mass <= 0 || part.P == nil {
			continue
		}
		offPart := int((part.Min-virtual.Min)/width + 0.5)
		cond := conds[b]
		for i, pm := range part.P {
			if pm == 0 {
				continue
			}
			for j, cm := range cond {
				out[offPart+i+j] += pm * cm
			}
		}
	}
	h := hist.New(outMin, width, out)
	return h.Trim()
}

// refPredict returns the clipped band-conditional distributions for one
// feature vector, in fresh buffers.
func refPredict(e *Estimator, features []float64) [][]float64 {
	row := append([]float64(nil), features...)
	e.Scaler.TransformRow(row)
	var s ml.InferScratch
	logits := e.Net.InferRow(&s, row)
	ml.GroupedSoftmaxRow(logits, e.Cfg.Bands)
	out := make([][]float64, e.Cfg.Bands)
	for b := 0; b < e.Cfg.Bands; b++ {
		cond := append([]float64(nil), logits[b*e.Cfg.CondBuckets:(b+1)*e.Cfg.CondBuckets]...)
		clipConditional(cond)
		out[b] = cond
	}
	return out
}

// refBandWeights partitions v into quantile bands by the midpoint rule,
// copying each band's masses.
func refBandWeights(v *hist.Hist, bands int) []BandPart {
	parts := make([]BandPart, bands)
	cum := 0.0
	for i, p := range v.P {
		mid := cum + p/2
		b := int(mid * float64(bands))
		if b >= bands {
			b = bands - 1
		}
		if b < 0 {
			b = 0
		}
		if parts[b].P == nil {
			parts[b].startIdx = i
		}
		for len(parts[b].P) < i-parts[b].startIdx {
			parts[b].P = append(parts[b].P, 0)
		}
		parts[b].P = append(parts[b].P, p)
		parts[b].Mass += p
		cum += p
	}
	for b := range parts {
		if parts[b].P != nil {
			parts[b].Min = v.Value(parts[b].startIdx)
			parts[b].Width = v.Width
		}
	}
	return parts
}

// refPathCost is the reference chain along a path, counting the
// estimated hops.
func refPathCost(m *Model, edges []graph.EdgeID) (h *hist.Hist, estimated int) {
	h = refInitialHist(m.KB, edges[0])
	for i := 1; i < len(edges); i++ {
		var est bool
		h, est = refExtend(m, h, edges[i-1], edges[i])
		if est {
			estimated++
		}
	}
	return h, estimated
}

// refPathCostElapsed is the reference chain under time-expanded slice
// selection for a trip departing at depart.
func refPathCostElapsed(set *ModelSet, depart float64, edges []graph.EdgeID) (*hist.Hist, []int) {
	slices := make([]int, len(edges))
	slices[0] = set.SliceOf(depart)
	h := refInitialHist(set.At(slices[0]).KB, edges[0])
	for i := 1; i < len(edges); i++ {
		elapsed := h.Mean()
		slices[i] = set.SliceOf(depart + elapsed)
		h, _ = refExtend(set.At(slices[i]), h, edges[i-1], edges[i])
	}
	return h, slices
}

// TestPathCostMatchesReference: PathCost, PathCostElapsed and
// PairSumEstimate — the callers that cost a path outside a search, on a
// pooled scratch — equal the reference chain bit for bit along
// trajectory paths, estimated hops included, and a warm PathCost or
// PairSumEstimate allocates only the histogram it returns.
func TestPathCostMatchesReference(t *testing.T) {
	m, _ := getModel(t)
	e := getEnv(t)
	always := &Model{KB: m.KB, Estimator: m.Estimator, Classifier: m.Classifier, Mode: AlwaysEstimate, MaxBuckets: m.MaxBuckets}
	set, err := NewModelSet([]*Model{always, {KB: m.KB, Mode: AlwaysConvolve, MaxBuckets: m.MaxBuckets}})
	if err != nil {
		t.Fatal(err)
	}
	boundary := traj.SliceStart(1, 2)
	paths, estimated, crossed := 0, 0, 0
	var long []graph.EdgeID
	for _, tr := range e.trajs {
		if paths == 60 {
			break
		}
		path := tr.Edges
		if len(path) < 3 {
			continue
		}
		paths++
		if len(path) >= 12 && long == nil {
			long = path[:12]
		}
		for _, model := range []*Model{m, always} {
			want, est := refPathCost(model, path)
			estimated += est
			got, err := PathCost(model, path)
			if err != nil {
				t.Fatal(err)
			}
			distsBitEqual(t, "PathCost", got, want)

			want, _ = refExtend(model, refInitialHist(model.KB, path[0]), path[0], path[1])
			if got, err = model.PairSumEstimate(path[0], path[1]); err != nil {
				t.Fatal(err)
			}
			distsBitEqual(t, "PairSumEstimate", got, want)
		}

		// Depart so that the first edge's mean alone stays in slice 0 and
		// the trip runs on into slice 1.
		depart := boundary - 1.5*m.KB.Edge(path[0]).Marginal.Mean()
		want, wantSlices := refPathCostElapsed(set, depart, path)
		got, gotSlices, err := PathCostElapsed(set.TimeExpandedCoster(depart, nil), path)
		if err != nil {
			t.Fatal(err)
		}
		distsBitEqual(t, "PathCostElapsed", got, want)
		for i := range wantSlices {
			if gotSlices[i] != wantSlices[i] {
				t.Fatalf("PathCostElapsed slices %v, reference %v", gotSlices, wantSlices)
			}
		}
		if wantSlices[len(wantSlices)-1] != wantSlices[0] {
			crossed++
		}
	}
	t.Logf("%d paths, %d estimated hops, %d boundary crossings", paths, estimated, crossed)
	if paths < 50 || estimated == 0 || crossed == 0 {
		t.Fatalf("%d paths, %d estimated hops, %d boundary crossings: the fixture no longer covers the kernel", paths, estimated, crossed)
	}
	if long == nil {
		t.Fatal("no trajectory of 12 edges")
	}
	if israce.Enabled {
		return // under the race detector sync.Pool drops Puts at random
	}
	if n := testing.AllocsPerRun(50, func() { PathCost(m, long) }); n > 2 {
		t.Errorf("a warm PathCost over 12 edges allocates %v, want at most 2", n)
	}
	if n := testing.AllocsPerRun(50, func() { m.PairSumEstimate(long[0], long[1]) }); n > 2 {
		t.Errorf("a warm PairSumEstimate allocates %v, want at most 2", n)
	}
}

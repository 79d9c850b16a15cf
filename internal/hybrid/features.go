package hybrid

import (
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
)

// Feature layout for the estimation model. The virtual-edge block
// describes the accumulated path-so-far distribution relative to its own
// minimum, which is what lets a model trained on two-edge pairs
// generalise to long pre-paths (the paper's virtual-edge trick).
const (
	numVirtualFeatures = 14
	numEdgeFeatures    = 7 + graph.NumRoadCategories
	numPairFeatures    = 5
	// NumFeatures is the estimator input dimension.
	NumFeatures = numVirtualFeatures + numEdgeFeatures + numPairFeatures
)

// appendVirtualFeatures describes the incoming (virtual) distribution:
// central moments, quantiles and a coarse 5-bin mass profile, all
// relative to the distribution's minimum so features are
// translation-invariant.
func appendVirtualFeatures(dst []float64, v *hist.Hist) []float64 {
	min := v.Min
	span := v.MaxValue() - min
	dst = append(dst,
		v.Mean()-min,
		v.Std(),
		v.Skewness(),
		span,
		v.Quantile(0.10)-min,
		v.Quantile(0.25)-min,
		v.Quantile(0.50)-min,
		v.Quantile(0.75)-min,
		v.Quantile(0.90)-min,
	)
	// Coarse mass profile over 5 equal spans of the support.
	var bins [5]float64
	if len(v.P) == 1 || span <= 0 {
		bins[0] = 1
	} else {
		for i, p := range v.P {
			rel := (v.Value(i) - min) / span
			b := int(rel * 5)
			if b > 4 {
				b = 4
			}
			bins[b] += p
		}
	}
	return append(dst, bins[0], bins[1], bins[2], bins[3], bins[4])
}

// appendEdgeFeatures describes the outgoing edge: static metadata plus
// its observed marginal statistics.
func appendEdgeFeatures(dst []float64, kb *KnowledgeBase, e graph.EdgeID) []float64 {
	ed := kb.g.Edge(e)
	st := kb.Edge(e)
	dst = append(dst,
		ed.FreeFlowSeconds(),
		ed.LengthMeters/1000,
		st.Mean,
		st.Std,
		st.MinTime,
		st.Marginal.MaxValue()-st.Marginal.Min,
		math.Log1p(float64(st.Count)),
	)
	for c := 0; c < graph.NumRoadCategories; c++ {
		if int(ed.Category) == c {
			dst = append(dst, 1)
		} else {
			dst = append(dst, 0)
		}
	}
	return dst
}

// appendPairFeatures describes the dependence statistics of the
// (last edge of the pre-path, outgoing edge) pair.
func appendPairFeatures(dst []float64, ps PairStats, hasPair bool) []float64 {
	has := 0.0
	if hasPair {
		has = 1
	}
	return append(dst,
		ps.Corr,
		math.Abs(ps.Corr),
		ps.MI,
		math.Log1p(float64(ps.Count)),
		has,
	)
}

// Features assembles the estimator input vector.
func Features(kb *KnowledgeBase, virtual *hist.Hist, next graph.EdgeID, ps PairStats, hasPair bool) []float64 {
	return AppendFeatures(make([]float64, 0, NumFeatures), kb, virtual, next, ps, hasPair)
}

// AppendFeatures assembles the estimator input vector into dst (usually
// dst[:0] of a per-search scratch buffer) and returns it — the
// allocation-free form of Features for the hot query path.
func AppendFeatures(dst []float64, kb *KnowledgeBase, virtual *hist.Hist, next graph.EdgeID, ps PairStats, hasPair bool) []float64 {
	dst = appendVirtualFeatures(dst, virtual)
	dst = appendEdgeFeatures(dst, kb, next)
	dst = appendPairFeatures(dst, ps, hasPair)
	return dst
}

// ClassifierFeatures is the input vector of the convolve-vs-estimate
// classifier: pure pair-dependence statistics.
func ClassifierFeatures(ps PairStats) []float64 {
	row := classifierRow(ps)
	return row[:]
}

// classifierRow is ClassifierFeatures as an array, which the query
// path keeps on the stack.
func classifierRow(ps PairStats) [NumClassifierFeatures]float64 {
	return [NumClassifierFeatures]float64{
		ps.Corr,
		math.Abs(ps.Corr),
		ps.MI,
		math.Log1p(float64(ps.Count)),
	}
}

// NumClassifierFeatures is the classifier input dimension.
const NumClassifierFeatures = 4

// BandWeightsInto partitions the distribution v into `bands` quantile
// bands by the midpoint rule and returns, per band, the (possibly zero)
// mass and the sub-distribution (unnormalised: sub-hist masses sum to
// the band mass). Degenerate distributions put all mass in band 0. The
// parts are appended into dst (usually dst[:0] of a per-search
// scratch), and each part's P aliases v.P: the midpoint rule's band
// index never decreases along the support, so a band is a contiguous
// sub-slice. Treat parts as read-only views that are valid while v is.
func BandWeightsInto(dst []BandPart, v *hist.Hist, bands int) []BandPart {
	for len(dst) < bands {
		dst = append(dst, BandPart{})
	}
	parts := dst[:bands]
	for b := range parts {
		parts[b] = BandPart{}
	}
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
		parts[b].P = v.P[parts[b].startIdx : i+1]
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

// BandPart is one quantile band of a distribution: a sub-histogram whose
// masses sum to Mass (not 1).
type BandPart struct {
	Min      float64
	Width    float64
	P        []float64
	Mass     float64
	startIdx int
}

// BandOfValue returns the quantile band (by the same midpoint rule as
// BandWeightsInto) that the realised value t of distribution v falls in.
// Used at training time to band observed incoming travel times.
func BandOfValue(v *hist.Hist, t float64, bands int) int {
	idx := int(math.Round((t - v.Min) / v.Width))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(v.P) {
		idx = len(v.P) - 1
	}
	cum := 0.0
	for i := 0; i < idx; i++ {
		cum += v.P[i]
	}
	mid := cum + v.P[idx]/2
	b := int(mid * float64(bands))
	if b >= bands {
		b = bands - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

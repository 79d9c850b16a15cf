package hist

import (
	"errors"
	"math"
)

// divergence support: the paper evaluates the hybrid model by the
// KL-divergence between the estimated distribution and the ground-truth
// trajectory distribution, so KL is the primary metric here; JS and
// total variation are provided for diagnostics.

// alignPair places both histograms on a common grid (the shared width,
// starting at the smaller Min) and returns the two aligned mass vectors.
// Both histograms must share the same width and be on the same grid
// offset modulo width (true for everything this repository produces).
func alignPair(a, b *Hist) (pa, pb []float64, err error) {
	if a == nil || b == nil {
		return nil, nil, errors.New("hist: divergence with nil histogram")
	}
	if math.Abs(a.Width-b.Width) > 1e-12 {
		return nil, nil, errors.New("hist: divergence width mismatch")
	}
	w := a.Width
	lo := math.Min(a.Min, b.Min)
	hi := math.Max(a.MaxValue(), b.MaxValue())
	n := int(math.Round((hi-lo)/w)) + 1
	pa = make([]float64, n)
	pb = make([]float64, n)
	offA := int(math.Round((a.Min - lo) / w))
	offB := int(math.Round((b.Min - lo) / w))
	copy(pa[offA:], a.P)
	copy(pb[offB:], b.P)
	return pa, pb, nil
}

// KL returns the Kullback–Leibler divergence D(p‖q) in nats, with
// additive smoothing eps applied to q (and p renormalised accordingly) so
// that support mismatches yield a large-but-finite penalty rather than
// +Inf. The paper's evaluation metric.
func KL(p, q *Hist, eps float64) (float64, error) {
	pa, pb, err := alignPair(p, q)
	if err != nil {
		return 0, err
	}
	if eps <= 0 {
		eps = 1e-9
	}
	// Smooth both sides to keep the divergence finite and symmetric in
	// its treatment of zero buckets.
	sumA, sumB := 0.0, 0.0
	for i := range pa {
		pa[i] += eps
		pb[i] += eps
		sumA += pa[i]
		sumB += pb[i]
	}
	d := 0.0
	for i := range pa {
		x := pa[i] / sumA
		y := pb[i] / sumB
		d += x * math.Log(x/y)
	}
	if d < 0 {
		d = 0 // numerical floor
	}
	return d, nil
}

// JS returns the Jensen–Shannon divergence (base e) between p and q,
// a bounded symmetric alternative to KL.
func JS(p, q *Hist) (float64, error) {
	pa, pb, err := alignPair(p, q)
	if err != nil {
		return 0, err
	}
	d := 0.0
	for i := range pa {
		m := (pa[i] + pb[i]) / 2
		if pa[i] > 0 && m > 0 {
			d += 0.5 * pa[i] * math.Log(pa[i]/m)
		}
		if pb[i] > 0 && m > 0 {
			d += 0.5 * pb[i] * math.Log(pb[i]/m)
		}
	}
	if d < 0 {
		d = 0
	}
	return d, nil
}

// TotalVariation returns 0.5·Σ|p_i − q_i| on the aligned grid.
func TotalVariation(p, q *Hist) (float64, error) {
	pa, pb, err := alignPair(p, q)
	if err != nil {
		return 0, err
	}
	d := 0.0
	for i := range pa {
		d += math.Abs(pa[i] - pb[i])
	}
	return d / 2, nil
}

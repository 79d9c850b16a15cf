package hist

import (
	"errors"
	"math"
)

// divergence support: the paper evaluates the hybrid model by the
// KL-divergence between the estimated distribution and the ground-truth
// trajectory distribution, so KL is the primary metric here; JS and
// total variation are provided for diagnostics. Each walks the two
// histograms' common grid in place and allocates nothing.

// aligned is two histograms seen on their common grid: the shared
// width, starting at the smaller Min and ending at the larger
// MaxValue. Point i of the grid holds a.P[i-offA] where that index
// exists and 0 elsewhere, and likewise for b.
type aligned struct {
	a, b       []float64
	n          int
	offA, offB int
}

// align lays a and b on their common grid. Both histograms must share
// the same width and be on the same grid offset modulo width (true for
// everything this repository produces).
func align(a, b *Hist) (aligned, error) {
	if a == nil || b == nil {
		return aligned{}, errors.New("hist: divergence with nil histogram")
	}
	if math.Abs(a.Width-b.Width) > 1e-12 {
		return aligned{}, errors.New("hist: divergence width mismatch")
	}
	w := a.Width
	lo := math.Min(a.Min, b.Min)
	hi := math.Max(a.MaxValue(), b.MaxValue())
	return aligned{
		a:    a.P,
		b:    b.P,
		n:    int(math.Round((hi-lo)/w)) + 1,
		offA: int(math.Round((a.Min - lo) / w)),
		offB: int(math.Round((b.Min - lo) / w)),
	}, nil
}

// at returns p's mass at point i of a grid on which p starts at off.
func at(p []float64, off, i int) float64 {
	if j := i - off; j >= 0 && j < len(p) {
		return p[j]
	}
	return 0
}

// KL returns the Kullback–Leibler divergence D(p‖q) in nats, with
// additive smoothing eps applied to q (and p renormalised accordingly) so
// that support mismatches yield a large-but-finite penalty rather than
// +Inf. The paper's evaluation metric.
func KL(p, q *Hist, eps float64) (float64, error) {
	g, err := align(p, q)
	if err != nil {
		return 0, err
	}
	if eps <= 0 {
		eps = 1e-9
	}
	// Smooth both sides to keep the divergence finite and symmetric in
	// its treatment of zero buckets.
	sumA, sumB := 0.0, 0.0
	for i := range g.n {
		sumA += at(g.a, g.offA, i) + eps
		sumB += at(g.b, g.offB, i) + eps
	}
	d := 0.0
	for i := range g.n {
		x := (at(g.a, g.offA, i) + eps) / sumA
		y := (at(g.b, g.offB, i) + eps) / sumB
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
	g, err := align(p, q)
	if err != nil {
		return 0, err
	}
	d := 0.0
	for i := range g.n {
		a, b := at(g.a, g.offA, i), at(g.b, g.offB, i)
		m := (a + b) / 2
		if a > 0 && m > 0 {
			d += 0.5 * a * math.Log(a/m)
		}
		if b > 0 && m > 0 {
			d += 0.5 * b * math.Log(b/m)
		}
	}
	if d < 0 {
		d = 0
	}
	return d, nil
}

// TotalVariation returns 0.5·Σ|p_i − q_i| on the aligned grid.
func TotalVariation(p, q *Hist) (float64, error) {
	g, err := align(p, q)
	if err != nil {
		return 0, err
	}
	d := 0.0
	for i := range g.n {
		d += math.Abs(at(g.a, g.offA, i) - at(g.b, g.offB, i))
	}
	return d / 2, nil
}

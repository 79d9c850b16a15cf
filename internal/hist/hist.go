// Package hist implements the travel-time cost model of the paper: finite
// histograms over travel time. A Hist assigns probability mass to the
// equally spaced support points Min, Min+Width, Min+2·Width, …, exactly
// matching the tabular distributions in the paper (e.g. H1 = {10: 0.5,
// 15: 0.5}). All routing-side operations — convolution, shifting,
// probability-within-budget, stochastic dominance, divergences — are
// histogram-native. The divergences (KL, the paper's evaluation
// metric, JS and TotalVariation) walk two histograms' common grid in
// place and allocate nothing.
package hist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// NormTolerance is the maximum deviation from total mass 1 that
// Validate accepts.
const NormTolerance = 1e-9

// massEpsilon is the smallest mass kept by Trim; anything below is
// considered numerical dust.
const massEpsilon = 1e-12

// Hist is a probability distribution over the equally spaced support
// points Min + i·Width for i in [0, len(P)). Travel times are in seconds
// throughout the repository.
//
// The zero value is not a valid distribution; construct with New,
// FromSamples, FromPairs or Delta.
type Hist struct {
	Min   float64   // value of the first support point
	Width float64   // spacing between adjacent support points (> 0)
	P     []float64 // probability mass per support point
}

// New returns a histogram with the given support start, bucket width and
// mass vector. The mass vector is used as-is (not copied, not
// normalised); call Normalize or Validate as appropriate.
func New(min, width float64, p []float64) *Hist {
	return &Hist{Min: min, Width: width, P: p}
}

// Delta returns the degenerate distribution with all mass at value v,
// represented on a grid of the given width.
func Delta(v, width float64) *Hist {
	return &Hist{Min: v, Width: width, P: []float64{1}}
}

// Uniform returns the uniform distribution over n support points starting
// at min with the given width. It panics if n <= 0.
func Uniform(min, width float64, n int) *Hist {
	if n <= 0 {
		panic("hist: Uniform with non-positive n")
	}
	p := make([]float64, n)
	for i := range p {
		p[i] = 1 / float64(n)
	}
	return &Hist{Min: min, Width: width, P: p}
}

// maxSupport is the most support points a constructor builds: the
// largest buffer an Arena recycles.
const maxSupport = 1 << arenaMaxClass

// validWidth reports whether width is finite and positive.
func validWidth(width float64) bool {
	return width > 0 && !math.IsInf(width, 1)
}

// supportTooWide reports whether a support whose last point sits span
// widths after its first — a NaN span included — has more than
// maxSupport points.
func supportTooWide(span float64) bool {
	return !(span >= 0 && span < maxSupport)
}

// FromSamples builds a normalised histogram from raw travel-time samples
// with the given bucket width. Bucket boundaries are aligned to multiples
// of width so that histograms built from different sample sets share a
// grid. It returns an error if samples is empty, a sample is not finite,
// width is not finite and positive, or the support would span more than
// 1<<20 buckets.
func FromSamples(samples []float64, width float64) (*Hist, error) {
	if len(samples) == 0 {
		return nil, errors.New("hist: FromSamples with no samples")
	}
	if !validWidth(width) {
		return nil, fmt.Errorf("hist: FromSamples with invalid width %v", width)
	}
	lo, hi := samples[0], samples[0]
	for _, s := range samples {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, fmt.Errorf("hist: FromSamples with non-finite sample %v", s)
		}
		if s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	min := math.Floor(lo/width) * width
	span := math.Floor((hi - min) / width)
	if supportTooWide(span) {
		return nil, fmt.Errorf("hist: FromSamples support [%v, %v] spans more than %d buckets of width %v", lo, hi, maxSupport, width)
	}
	n := int(span) + 1
	p := make([]float64, n)
	inc := 1 / float64(len(samples))
	for _, s := range samples {
		i := int(math.Floor((s - min) / width))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		p[i] += inc
	}
	return &Hist{Min: min, Width: width, P: p}, nil
}

// FromPairs builds a normalised histogram from explicit (value, weight)
// pairs, e.g. the literal tables in the paper. Values must lie on a
// common grid of the given width; each value is snapped to the nearest
// grid point. It returns an error on empty input, a width that is not
// finite and positive, a value that is not finite, a weight that is
// negative or not finite, a zero or overflowing total weight, or a
// support that would span more than 1<<20 buckets.
func FromPairs(pairs map[float64]float64, width float64) (*Hist, error) {
	if len(pairs) == 0 {
		return nil, errors.New("hist: FromPairs with no pairs")
	}
	if !validWidth(width) {
		return nil, fmt.Errorf("hist: FromPairs with invalid width %v", width)
	}
	vals := make([]float64, 0, len(pairs))
	total := 0.0
	for v, w := range pairs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("hist: FromPairs with non-finite value %v", v)
		}
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 1) {
			return nil, fmt.Errorf("hist: FromPairs with invalid weight %v", w)
		}
		vals = append(vals, v)
		total += w
	}
	if total <= 0 || math.IsInf(total, 1) {
		return nil, fmt.Errorf("hist: FromPairs with total weight %v", total)
	}
	sort.Float64s(vals)
	min := vals[0] // grid anchored at the smallest value
	span := math.Round((vals[len(vals)-1] - min) / width)
	if supportTooWide(span) {
		return nil, fmt.Errorf("hist: FromPairs values [%v, %v] span more than %d buckets of width %v", min, vals[len(vals)-1], maxSupport, width)
	}
	maxIdx := int(span)
	p := make([]float64, maxIdx+1)
	for v, w := range pairs {
		i := int(math.Round((v - min) / width))
		if i < 0 || i > maxIdx {
			return nil, fmt.Errorf("hist: FromPairs value %v off grid", v)
		}
		p[i] += w / total
	}
	return &Hist{Min: min, Width: width, P: p}, nil
}

// Clone returns a deep copy.
func (h *Hist) Clone() *Hist {
	p := make([]float64, len(h.P))
	copy(p, h.P)
	return &Hist{Min: h.Min, Width: h.Width, P: p}
}

// Value returns the i-th support point.
func (h *Hist) Value(i int) float64 { return h.Min + float64(i)*h.Width }

// MaxValue returns the largest support point.
func (h *Hist) MaxValue() float64 { return h.Value(len(h.P) - 1) }

// TotalMass returns the sum of all probability mass.
func (h *Hist) TotalMass() float64 {
	s := 0.0
	for _, p := range h.P {
		s += p
	}
	return s
}

// Validate checks that the histogram is a well-formed probability
// distribution: positive width, non-negative finite masses summing to 1
// within NormTolerance, and at least one support point.
func (h *Hist) Validate() error {
	if h == nil {
		return errors.New("hist: nil histogram")
	}
	if len(h.P) == 0 {
		return errors.New("hist: empty support")
	}
	if h.Width <= 0 || math.IsNaN(h.Width) || math.IsInf(h.Width, 0) {
		return fmt.Errorf("hist: invalid width %v", h.Width)
	}
	if math.IsNaN(h.Min) || math.IsInf(h.Min, 0) {
		return fmt.Errorf("hist: invalid min %v", h.Min)
	}
	total := 0.0
	for i, p := range h.P {
		if p < 0 || math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("hist: invalid mass %v at bucket %d", p, i)
		}
		total += p
	}
	if math.Abs(total-1) > NormTolerance {
		return fmt.Errorf("hist: total mass %v deviates from 1", total)
	}
	return nil
}

// Normalize scales the mass vector to sum to 1 in place and returns h.
// It panics if the total mass is zero or negative.
func (h *Hist) Normalize() *Hist {
	total := h.TotalMass()
	if total <= 0 {
		panic("hist: Normalize with non-positive total mass")
	}
	for i := range h.P {
		h.P[i] /= total
	}
	return h
}

// Trim removes leading and trailing buckets whose mass is below
// massEpsilon, adjusting Min, then renormalises. It returns h.
func (h *Hist) Trim() *Hist {
	lo := 0
	for lo < len(h.P)-1 && h.P[lo] < massEpsilon {
		lo++
	}
	hi := len(h.P)
	for hi-1 > lo && h.P[hi-1] < massEpsilon {
		hi--
	}
	if lo > 0 || hi < len(h.P) {
		h.Min += float64(lo) * h.Width
		h.P = append([]float64(nil), h.P[lo:hi]...)
	}
	return h.Normalize()
}

// Mean returns the expected value.
func (h *Hist) Mean() float64 {
	m := 0.0
	for i, p := range h.P {
		m += p * h.Value(i)
	}
	return m
}

// Variance returns the variance.
func (h *Hist) Variance() float64 {
	m := h.Mean()
	v := 0.0
	for i, p := range h.P {
		d := h.Value(i) - m
		v += p * d * d
	}
	return v
}

// Std returns the standard deviation.
func (h *Hist) Std() float64 { return math.Sqrt(h.Variance()) }

// Skewness returns the standardised third central moment, or 0 for a
// (near-)degenerate distribution.
func (h *Hist) Skewness() float64 {
	m, s := h.Mean(), h.Std()
	if s < 1e-12 {
		return 0
	}
	sk := 0.0
	for i, p := range h.P {
		d := (h.Value(i) - m) / s
		sk += p * d * d * d
	}
	return sk
}

// CDF returns P(X <= x).
func (h *Hist) CDF(x float64) float64 {
	return h.cdfFrom(h.Min, x)
}

// CDFShifted returns P(X + delta <= x): the CDF of the histogram
// translated by delta seconds, evaluated without materialising the
// shifted copy. It is bit-identical to h.Shift(delta).CDF(x) — the
// allocation-free form of the paper's cost shifting (pruning (c)),
// which previously cloned the full mass vector per candidate label.
func (h *Hist) CDFShifted(x, delta float64) float64 {
	return h.cdfFrom(h.Min+delta, x)
}

// cdfFrom evaluates the CDF at x for a support starting at min (the
// histogram's own Min, or Min+delta for a virtual shift). The shared
// arithmetic keeps CDF and CDFShifted exactly consistent.
func (h *Hist) cdfFrom(min, x float64) float64 {
	if x < min {
		return 0
	}
	i := int(math.Floor((x - min) / h.Width))
	if i >= len(h.P)-1 {
		if x >= min+float64(len(h.P)-1)*h.Width {
			return 1
		}
	}
	return h.CDFAt(i)
}

// CDFAt returns the cumulative mass through support index i — the
// prefix-sum primitive under CDF and CDFShifted. The scan exits at
// min(i, len(P)-1), so left-tail queries (the common case under budget
// routing, where budgets sit well inside the support) touch only the
// prefix they need. Negative i returns 0; i past the support returns 1.
func (h *Hist) CDFAt(i int) float64 {
	acc := 0.0
	for j := 0; j <= i && j < len(h.P); j++ {
		acc += h.P[j]
	}
	if acc > 1 {
		acc = 1
	}
	return acc
}

// ProbWithinBudget returns P(X <= t): the probability of arriving within
// the time budget t. This is the objective of probabilistic budget
// routing.
func (h *Hist) ProbWithinBudget(t float64) float64 { return h.CDF(t) }

// Quantile returns the smallest support value v with P(X <= v) >= q,
// clamping q into [0, 1].
func (h *Hist) Quantile(q float64) float64 {
	if q <= 0 {
		return h.Min
	}
	if q > 1 {
		q = 1
	}
	acc := 0.0
	for i, p := range h.P {
		acc += p
		if acc >= q-1e-15 {
			return h.Value(i)
		}
	}
	return h.MaxValue()
}

// Shift returns a copy of h translated by delta seconds. This is the
// "distribution cost shifting" primitive of the paper's pruning (c): the
// distribution of X + delta for deterministic delta.
func (h *Hist) Shift(delta float64) *Hist {
	out := h.Clone()
	out.Min += delta
	return out
}

// Convolve returns the distribution of X + Y assuming independence, the
// classical path-cost combination step. Both histograms must share the
// same width. The result has
// Min = a.Min + b.Min and len(a)+len(b)-1 support points, matching the
// paper's worked example (H1 ⊗ H2 = {30: .25, 35: .5, 40: .25}).
func Convolve(a, b *Hist) (*Hist, error) {
	out := &Hist{}
	if err := ConvolveInto(out, a, b); err != nil {
		return nil, err
	}
	return out, nil
}

// convolveDenseCutoff is the measured density threshold that picks the
// kernel's inner path: at or above this fraction of non-zero source
// buckets the register-blocked dense path (convolveDense) beats the
// sparse path's skip-zero-rows scaled accumulate. Measured on a 512x64
// convolution with the source mass thinned to fixed densities: the two
// paths cross between 0.5 and 0.6 non-zero fraction (sparse wins 1.18x
// at 0.5, dense wins 1.01x at 0.6, 1.3x at 0.8). Adding a zero row
// accumulates +0.0 into non-negative masses, which is a bit-exact
// no-op, so the two paths always agree bit-for-bit and the cutoff is
// purely a speed decision.
const convolveDenseCutoff = 0.6

// ConvolveInto computes Convolve(a, b) into dst, reusing dst.P's backing
// array when its capacity suffices — the scratch-buffer form of the hot
// kernel. dst must not alias a or b. The arithmetic (accumulation order
// included) is identical to Convolve, so results are bit-equal.
//
// The inner loop is a scaled accumulate (p[i:i+m] += pa · b.P[:m])
// unrolled 4-wide with bounds checks hoisted (see axpy); histograms
// whose source mass is mostly non-zero take a branch-free dense path,
// chosen by a measured density cutoff.
func ConvolveInto(dst, a, b *Hist) error {
	if a == nil || b == nil {
		return errors.New("hist: Convolve with nil histogram")
	}
	if math.Abs(a.Width-b.Width) > 1e-12 {
		return fmt.Errorf("hist: Convolve width mismatch %v vs %v", a.Width, b.Width)
	}
	n := len(a.P) + len(b.P) - 1
	if cap(dst.P) < n {
		dst.P = make([]float64, n)
	} else {
		dst.P = dst.P[:n]
		clear(dst.P)
	}
	p := dst.P
	m := len(b.P)
	nz := 0
	for _, pa := range a.P {
		if pa != 0 {
			nz++
		}
	}
	if m >= 4 && float64(nz) >= convolveDenseCutoff*float64(len(a.P)) {
		convolveDense(p, a.P, b.P)
	} else {
		for i, pa := range a.P {
			if pa == 0 {
				continue
			}
			axpy(pa, b.P, p[i:i+m])
		}
	}
	dst.Min = a.Min + b.Min
	dst.Width = a.Width
	return nil
}

// convolveDense is the branch-free register-blocked kernel: four source
// rows at a time are folded into each output as one left-associated
// four-term scaled accumulate, so every output element costs one load
// and one store instead of four of each. Left-to-right evaluation of
//
//	p[k] + a[i]·b[j] + a[i+1]·b[j-1] + a[i+2]·b[j-2] + a[i+3]·b[j-3]
//
// adds the rows' contributions in exactly the ascending-row order the
// scalar kernel uses, so the result is bit-identical. Zero rows are not
// skipped: masses are non-negative and finite, so a zero row
// contributes +0.0, a bit-exact no-op. Requires len(bp) >= 4.
func convolveDense(p, ap, bp []float64) {
	na, nb := len(ap), len(bp)
	i := 0
	for ; i+4 <= na; i += 4 {
		a0, a1, a2, a3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
		// Leading outputs of the block: only rows i..k reach them.
		p[i] += a0 * bp[0]
		p[i+1] = p[i+1] + a0*bp[1] + a1*bp[0]
		p[i+2] = p[i+2] + a0*bp[2] + a1*bp[1] + a2*bp[0]
		// Core: all four rows contribute to outputs i+3 .. i+nb-1.
		for j := 3; j < nb; j++ {
			p[i+j] = p[i+j] + a0*bp[j] + a1*bp[j-1] + a2*bp[j-2] + a3*bp[j-3]
		}
		// Trailing outputs: rows drop out one by one.
		p[i+nb] = p[i+nb] + a1*bp[nb-1] + a2*bp[nb-2] + a3*bp[nb-3]
		p[i+nb+1] = p[i+nb+1] + a2*bp[nb-1] + a3*bp[nb-2]
		p[i+nb+2] += a3 * bp[nb-1]
	}
	// Remaining rows accumulate row-wise, still in ascending order.
	for ; i < na; i++ {
		axpy(ap[i], bp, p[i:i+nb])
	}
}

// axpy accumulates y[i] += s·x[i] for i in [0, len(x)); y must be at
// least as long as x. The 4-way unrolling amortises loop overhead and
// the y re-slice hoists its bounds checks; element order is preserved
// exactly, so the accumulation is bit-identical to the scalar loop.
func axpy(s float64, x, y []float64) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += s * x[i]
		y[i+1] += s * x[i+1]
		y[i+2] += s * x[i+2]
		y[i+3] += s * x[i+3]
	}
	for ; i < n; i++ {
		y[i] += s * x[i]
	}
}

// MustConvolve is Convolve that panics on error; for internal use where
// widths are guaranteed equal.
func MustConvolve(a, b *Hist) *Hist {
	out, err := Convolve(a, b)
	if err != nil {
		panic(err)
	}
	return out
}

// cdfTol is the slack of the CDF comparisons: a running sum may trail
// the other by up to cdfTol and still count as at least it.
const cdfTol = 1e-12

// gridOffset returns how many grid points b's first bucket sits after
// a's. It is math.Round of the exact ratio whenever that ratio lies
// within 0.25 of an integer — which the comparisons' precondition
// (equal widths, same grid offset) guarantees — and costs a Floor, an
// instruction on amd64, instead of Round's bit manipulation.
func gridOffset(a, b *Hist) int {
	return int(math.Floor((b.Min-a.Min)/a.Width + 0.5))
}

// CompareCDF aligns a and b on their common grid and reports whether
// CDF_a(x) >= CDF_b(x) - 1e-12 at every grid point (aGE) and the
// converse (bGE). aGE && bGE means the CDFs are equal everywhere within
// tolerance. This is the single-pass primitive behind stochastic-
// dominance pruning: one call answers both "a dominates b" and "b
// dominates a".
//
// Precondition: a and b have the same width, their Mins differ by a
// whole number of widths up to rounding (within a quarter width), and
// every mass is non-negative and finite.
//
// The walk is split at the support boundaries — the head where only
// the earlier-starting histogram has mass, the overlap, the tail of
// whichever ends later — so no bucket pays a range check; grid points
// where neither has mass (a gap between disjoint supports) change
// neither running sum and are skipped. Each sum adds its masses in
// index order, so the verdict is the one a point-by-point walk of the
// common grid gives. Masses are non-negative, so each running sum only
// grows. Where one side alone adds mass (the head, the tails), its own
// verdict cannot fail and the other's is decided by one test at the
// stretch's last point; and once the overlap settles one verdict, the
// walk goes on testing only the other.
func CompareCDF(a, b *Hist) (aGE, bGE bool) {
	pa, pb := a.P, b.P
	ca, cb := 0.0, 0.0
	if off := gridOffset(a, b); off > 0 {
		n := min(off, len(pa))
		ca = addUp(ca, pa[:n])
		pa = pa[n:]
		if cb < ca-cdfTol {
			return geFrom(pa, pb, ca, cb), false
		}
	} else if off < 0 {
		n := min(-off, len(pb))
		cb = addUp(cb, pb[:n])
		pb = pb[n:]
		if ca < cb-cdfTol {
			return false, geFrom(pb, pa, cb, ca)
		}
	}
	// Disjoint supports leave the earlier histogram consumed and the
	// overlap empty.
	n := min(len(pa), len(pb))
	oa, ob := pa[:n], pb[:n]
	for k := range oa {
		ca += oa[k]
		cb += ob[k]
		// At most one verdict fails at one grid point.
		if ca < cb-cdfTol {
			return false, geFrom(pb[k+1:], pa[k+1:], cb, ca)
		}
		if cb < ca-cdfTol {
			return geFrom(pa[k+1:], pb[k+1:], ca, cb), false
		}
	}
	if len(pa) > n {
		return true, !(cb < addUp(ca, pa[n:])-cdfTol)
	}
	if len(pb) > n {
		return !(ca < addUp(cb, pb[n:])-cdfTol), true
	}
	return true, true
}

// geFrom continues a one-sided walk from aligned grid positions whose
// running sums are ca and cb and whose verdict held at the last grid
// point walked: it reports whether ca >= cb - 1e-12 at every point
// still ahead, returning at the first point where that fails. Only one
// of the two tails is non-empty; in pa's, ca only grows and the verdict
// holds, and in pb's, cb only grows and the last point decides.
func geFrom(pa, pb []float64, ca, cb float64) bool {
	n := min(len(pa), len(pb))
	oa, ob := pa[:n], pb[:n]
	for k := range oa {
		ca += oa[k]
		cb += ob[k]
		if ca < cb-cdfTol {
			return false
		}
	}
	return !(ca < addUp(cb, pb[n:])-cdfTol)
}

// addUp returns c plus the masses of p, added in index order.
func addUp(c float64, p []float64) float64 {
	for _, m := range p {
		c += m
	}
	return c
}

// DominatesOrEqual reports whether h weakly first-order stochastically
// dominates other in the travel-time sense: h is at least as likely to
// have arrived by every deadline, i.e. CDF_h(x) >= CDF_other(x) for all
// x, CDF-identical distributions included. Its verdict is exactly
// CompareCDF(h, other)'s aGE — the same running sums, the same test,
// the same precondition — but the walk is one-sided: it returns at the
// first grid point where h's CDF falls below other's, which, when other
// starts earlier, is usually other's first bucket.
func (h *Hist) DominatesOrEqual(other *Hist) bool {
	pa, pb := h.P, other.P
	ca, cb := 0.0, 0.0
	if off := gridOffset(h, other); off > 0 {
		// h's head: ca only grows, so the verdict holds throughout.
		n := min(off, len(pa))
		ca = addUp(ca, pa[:n])
		pa = pa[n:]
	} else if off < 0 {
		n := min(-off, len(pb))
		for _, m := range pb[:n] {
			cb += m
			if ca < cb-cdfTol {
				return false
			}
		}
		pb = pb[n:]
	}
	return geFrom(pa, pb, ca, cb)
}

// TruncateAboveInPlace aggregates all probability mass at support
// points strictly greater than x into the first support point above x,
// preserving CDF(v) for every v <= x. Budget routing uses this to bound
// label memory: mass beyond the budget never affects the objective.
// h is mutated — the mass slice is shortened in place, its capacity
// retained for reuse — and returned; if the whole support lies above x
// (or below), it is left unchanged. Only use on histograms the caller
// exclusively owns, e.g. arena-backed search labels.
func (h *Hist) TruncateAboveInPlace(x float64) *Hist {
	if h.MaxValue() <= x || h.Min > x {
		return h
	}
	// First index with Value(idx) > x.
	idx := int(math.Floor((x-h.Min)/h.Width)) + 1
	if idx >= len(h.P) {
		return h
	}
	tail := 0.0
	for _, m := range h.P[idx:] {
		tail += m
	}
	h.P[idx] = tail
	h.P = h.P[:idx+1]
	return h
}

// CapBucketsInPlace limits the support to at most maxBuckets points by
// aggregating tail mass into the last kept bucket, keeping total mass.
// Long routing searches use this to bound per-label memory. h is
// mutated — the mass slice is shortened in place — and returned. Only
// use on exclusively owned histograms.
func (h *Hist) CapBucketsInPlace(maxBuckets int) *Hist {
	if maxBuckets <= 0 || len(h.P) <= maxBuckets {
		return h
	}
	for _, m := range h.P[maxBuckets:] {
		h.P[maxBuckets-1] += m
	}
	h.P = h.P[:maxBuckets]
	return h
}

// TrimInPlace is Trim mutating h instead of allocating: near-zero
// leading and trailing buckets are dropped by sliding the kept range to
// the front of the existing backing array, then renormalising. The
// arithmetic matches Trim exactly. It returns h. Only use on
// exclusively owned histograms.
func (h *Hist) TrimInPlace() *Hist {
	lo := 0
	for lo < len(h.P)-1 && h.P[lo] < massEpsilon {
		lo++
	}
	hi := len(h.P)
	for hi-1 > lo && h.P[hi-1] < massEpsilon {
		hi--
	}
	if lo > 0 || hi < len(h.P) {
		h.Min += float64(lo) * h.Width
		copy(h.P, h.P[lo:hi])
		h.P = h.P[:hi-lo]
	}
	return h.Normalize()
}

// String renders the histogram as a compact table, e.g.
// "{10: 0.500, 15: 0.500}". Masses below 0.05% are elided for
// readability; use the P slice for exact values.
func (h *Hist) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, p := range h.P {
		if p < 5e-4 {
			continue
		}
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%g: %.3f", h.Value(i), p)
	}
	b.WriteByte('}')
	return b.String()
}

// Mixture returns the mixture distribution sum_i w[i]·hs[i], re-gridded
// onto the width of the first component. Weights are normalised. All
// components must share the same width.
func Mixture(hs []*Hist, w []float64) (*Hist, error) {
	out := &Hist{}
	if err := MixtureInto(out, hs, w); err != nil {
		return nil, err
	}
	return out, nil
}

// MixtureInto computes Mixture(hs, w) into dst, reusing dst.P's backing
// array when its capacity suffices. dst must not alias a component. The
// arithmetic is Mixture's, so results are bit-equal.
func MixtureInto(dst *Hist, hs []*Hist, w []float64) error {
	if len(hs) == 0 || len(hs) != len(w) {
		return errors.New("hist: Mixture with mismatched inputs")
	}
	width := hs[0].Width
	lo, hi := math.Inf(1), math.Inf(-1)
	totalW := 0.0
	for k, h := range hs {
		if math.Abs(h.Width-width) > 1e-12 {
			return fmt.Errorf("hist: Mixture width mismatch at component %d", k)
		}
		if w[k] < 0 {
			return fmt.Errorf("hist: Mixture negative weight at component %d", k)
		}
		totalW += w[k]
		if h.Min < lo {
			lo = h.Min
		}
		if h.MaxValue() > hi {
			hi = h.MaxValue()
		}
	}
	if totalW <= 0 {
		return errors.New("hist: Mixture with zero total weight")
	}
	n := int(math.Round((hi-lo)/width)) + 1
	dst.P = slices.Grow(dst.P[:0], n)[:n]
	clear(dst.P)
	for k, h := range hs {
		off := int(math.Round((h.Min - lo) / width))
		for i, m := range h.P {
			dst.P[off+i] += m * w[k] / totalW
		}
	}
	dst.Min, dst.Width = lo, width
	return nil
}

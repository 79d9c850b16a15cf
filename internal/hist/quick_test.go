package hist

import (
	"math"
	"testing"
	"testing/quick"

	"stochroute/internal/rng"
)

// randHist builds a random normalised histogram on the width-w grid from
// quick-generated bytes.
func randHist(r *rng.RNG, w float64, maxLen int) *Hist {
	n := 1 + r.Intn(maxLen)
	p := make([]float64, n)
	for i := range p {
		p[i] = r.Float64()
	}
	// Guarantee some mass.
	p[r.Intn(n)] += 0.5
	min := float64(r.Intn(50)) * w
	return New(min, w, p).Normalize()
}

func TestQuickConvolutionProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 2, 12)
		b := randHist(r, 2, 12)
		c := MustConvolve(a, b)
		if err := c.Validate(); err != nil {
			t.Logf("conv invalid: %v", err)
			return false
		}
		// Mean and variance additive.
		if math.Abs(c.Mean()-(a.Mean()+b.Mean())) > 1e-7 {
			return false
		}
		if math.Abs(c.Variance()-(a.Variance()+b.Variance())) > 1e-6 {
			return false
		}
		// Commutative.
		c2 := MustConvolve(b, a)
		if c.Min != c2.Min || len(c.P) != len(c2.P) {
			return false
		}
		for i := range c.P {
			if math.Abs(c.P[i]-c2.P[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickConvolutionAssociative(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 1, 8)
		b := randHist(r, 1, 8)
		c := randHist(r, 1, 8)
		left := MustConvolve(MustConvolve(a, b), c)
		right := MustConvolve(a, MustConvolve(b, c))
		if left.Min != right.Min || len(left.P) != len(right.P) {
			return false
		}
		for i := range left.P {
			if math.Abs(left.P[i]-right.P[i]) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickShiftInvariants(t *testing.T) {
	f := func(seed uint64, rawDelta float64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 16)
		delta := math.Mod(rawDelta, 1000)
		if math.IsNaN(delta) {
			delta = 0
		}
		s := h.Shift(delta)
		if math.Abs(s.Mean()-(h.Mean()+delta)) > 1e-7 {
			return false
		}
		if math.Abs(s.Variance()-h.Variance()) > 1e-7 {
			return false
		}
		// CDF translates: CDF_s(x+delta) == CDF_h(x) at support points.
		for i := range h.P {
			x := h.Value(i)
			if math.Abs(s.CDF(x+delta)-h.CDF(x)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDominancePartialOrder(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 2, 10)
		b := randHist(r, 2, 10)
		c := randHist(r, 2, 10)
		// Reflexivity of DominatesOrEqual; irreflexivity of strict dominance.
		if !a.DominatesOrEqual(a) || dominates(a, a) {
			return false
		}
		// Antisymmetry: both strictly dominating is impossible.
		if dominates(a, b) && dominates(b, a) {
			return false
		}
		// Transitivity.
		if a.DominatesOrEqual(b) && b.DominatesOrEqual(c) && !a.DominatesOrEqual(c) {
			return false
		}
		// Shifting later can never create dominance over the original.
		if dominates(a.Shift(2), a) {
			return false
		}
		// The original dominates its delayed copy.
		if !dominates(a, a.Shift(2)) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickTruncatePreservesObjective(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 20)
		budget := h.Min + r.Float64()*(h.MaxValue()-h.Min)
		tr := h.Clone().TruncateAboveInPlace(budget)
		if math.Abs(tr.TotalMass()-1) > 1e-9 {
			return false
		}
		return math.Abs(tr.CDF(budget)-h.CDF(budget)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileCDFConsistency(t *testing.T) {
	f := func(seed uint64, rawQ float64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 16)
		q := math.Abs(math.Mod(rawQ, 1))
		v := h.Quantile(q)
		// CDF at the quantile covers q.
		return h.CDF(v) >= q-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCapBucketsKeepsMassAndCDFPrefix(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 24)
		cap := 1 + r.Intn(len(h.P))
		c := h.Clone().CapBucketsInPlace(cap)
		if len(c.P) > cap {
			return false
		}
		if math.Abs(c.TotalMass()-1) > 1e-9 {
			return false
		}
		// CDF below the cap point is unchanged.
		for i := 0; i < cap-1 && i < len(h.P); i++ {
			if math.Abs(c.CDF(h.Value(i))-h.CDF(h.Value(i))) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// compareCDFPointwise is the point-by-point walk of the common grid
// that CompareCDF's peeled loops replace; it stays here as the
// reference the property test compares against.
func compareCDFPointwise(a, b *Hist) (aGE, bGE bool) {
	const tol = 1e-12
	offB := int(math.Round((b.Min - a.Min) / a.Width))
	lo, hi := min(0, offB), max(len(a.P), offB+len(b.P))-1
	aGE, bGE = true, true
	ca, cb := 0.0, 0.0
	for i := lo; i <= hi; i++ {
		if i >= 0 && i < len(a.P) {
			ca += a.P[i]
		}
		if j := i - offB; j >= 0 && j < len(b.P) {
			cb += b.P[j]
		}
		if ca < cb-tol {
			aGE = false
		}
		if cb < ca-tol {
			bGE = false
		}
		if !aGE && !bGE {
			return
		}
	}
	return aGE, bGE
}

// TestQuickCompareCDFMatchesPointwise: on random pairs — b starting
// before, at or after a, overlapping, nested or disjoint, equal,
// differing by less than the 1e-12 tolerance, carrying a different
// total mass (so a tail's last point decides), or starting a few ulps
// off a whole number of widths (the grid offset's precondition) — the
// peeled CompareCDF and the one-sided DominatesOrEqual each give the
// pointwise verdict, and both forms of pruning (d)'s decision — one
// fused call before the child is dominated, the two one-sided checks
// after — decide exactly as the former DominatesOrEqual-then-Dominates
// pair of passes did.
func TestQuickCompareCDFMatchesPointwise(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 2, 14)
		var b *Hist
		switch r.Intn(7) {
		case 0: // anywhere on the grid
			b = randHist(r, 2, 14)
		case 1: // disjoint, on either side
			b = randHist(r, 2, 14)
			gap := float64(len(a.P)+len(b.P)+r.Intn(4)) * 2
			if r.Intn(2) == 0 {
				gap = -gap
			}
			b.Min = a.Min + gap
		case 2: // equal CDFs
			b = a.Clone()
		case 3: // inside the tolerance
			b = a.Clone()
			b.P[r.Intn(len(b.P))] += (r.Float64() - 0.5) * 1.8e-12
		case 4: // a different total mass: a's plus some past its end, or a's rescaled
			b = a.Clone()
			if r.Intn(2) == 0 {
				b.P = append(b.P, make([]float64, r.Intn(3))...)
				b.P = append(b.P, r.Float64()*1e-9)
			} else {
				for i := range b.P {
					b.P[i] *= 0.98 + 0.04*r.Float64()
				}
			}
		case 5: // a whole number of widths away, plus or minus a few ulps
			b = randHist(r, 2, 14)
			b.Min = a.Min + float64(r.Intn(9)-4)*2
			dir := math.Inf(1 - 2*r.Intn(2))
			for range 1 + r.Intn(4) {
				b.Min = math.Nextafter(b.Min, dir)
			}
		default: // same shape, shifted by a few buckets either way
			b = a.Clone()
			b.Min += float64(r.Intn(7)-3) * 2
		}
		for _, pair := range [][2]*Hist{{a, b}, {b, a}} {
			other, nd := pair[0], pair[1]
			aGE, bGE := CompareCDF(other, nd)
			if wa, wb := compareCDFPointwise(other, nd); aGE != wa || bGE != wb {
				t.Logf("seed %d: CompareCDF = (%v,%v), pointwise (%v,%v)", seed, aGE, bGE, wa, wb)
				return false
			}
			if ndGE, otherGE := nd.DominatesOrEqual(other), other.DominatesOrEqual(nd); ndGE != bGE || otherGE != aGE {
				t.Logf("seed %d: DominatesOrEqual = (%v,%v), CompareCDF (%v,%v)", seed, otherGE, ndGE, aGE, bGE)
				return false
			}
			// The two-pass decision of pruning (d), on the reference.
			otherGE, _ := compareCDFPointwise(other, nd)
			ndGE, ndLE := compareCDFPointwise(nd, other)
			wantDominated, wantKill := otherGE, !otherGE && ndGE && !ndLE
			if dominated, kill := aGE, !aGE && bGE; dominated != wantDominated || kill != wantKill {
				t.Logf("seed %d: fused (dominated=%v kill=%v), two-pass (%v,%v)", seed, dominated, kill, wantDominated, wantKill)
				return false
			}
			// Once dominated, the kill alone, one side at a time.
			if kill := nd.DominatesOrEqual(other) && !other.DominatesOrEqual(nd); kill != (ndGE && !otherGE) {
				t.Logf("seed %d: one-sided kill %v, reference %v", seed, kill, ndGE && !otherGE)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

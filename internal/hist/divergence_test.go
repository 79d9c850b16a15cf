package hist

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"stochroute/internal/israce"
	"stochroute/internal/rng"
)

func TestKLZeroForIdentical(t *testing.T) {
	h := New(10, 5, []float64{0.3, 0.4, 0.3})
	d, err := KL(h, h.Clone(), 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-9 {
		t.Errorf("KL(h, h) = %v", d)
	}
}

func TestKLPositiveForDifferent(t *testing.T) {
	truth := New(30, 5, []float64{0.5, 0, 0.5})
	conv := New(30, 5, []float64{0.25, 0.5, 0.25})
	d, err := KL(truth, conv, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// The worked example: truth has no mass at 35, convolution puts half
	// there; KL should be substantial (≈ log 2 over half the mass).
	if d < 0.3 {
		t.Errorf("KL = %v, want >= 0.3", d)
	}
}

func TestKLWidthMismatch(t *testing.T) {
	a := New(0, 1, []float64{1})
	b := New(0, 2, []float64{1})
	if _, err := KL(a, b, 1e-9); err == nil {
		t.Error("width mismatch should error")
	}
	if _, err := KL(nil, a, 1e-9); err == nil {
		t.Error("nil should error")
	}
}

func TestJSSymmetricAndBounded(t *testing.T) {
	a := New(0, 1, []float64{0.9, 0.1})
	b := New(0, 1, []float64{0.1, 0.9})
	d1, err := JS(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := JS(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("JS not symmetric: %v vs %v", d1, d2)
	}
	if d1 <= 0 || d1 > math.Ln2+1e-12 {
		t.Errorf("JS = %v outside (0, ln 2]", d1)
	}
	// Disjoint supports reach the ln 2 bound.
	c := New(100, 1, []float64{1})
	d3, err := JS(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d3-math.Ln2) > 1e-9 {
		t.Errorf("disjoint JS = %v, want ln 2", d3)
	}
}

func TestTotalVariation(t *testing.T) {
	a := New(0, 1, []float64{1, 0})
	b := New(0, 1, []float64{0, 1})
	d, err := TotalVariation(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1) > 1e-12 {
		t.Errorf("TV of disjoint = %v, want 1", d)
	}
	if d, _ := TotalVariation(a, a.Clone()); d != 0 {
		t.Errorf("TV(a,a) = %v", d)
	}
}

func TestQuickDivergenceProperties(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 2, 12)
		b := randHist(r, 2, 12)
		kl, err := KL(a, b, 1e-9)
		if err != nil || kl < 0 {
			return false
		}
		js, err := JS(a, b)
		if err != nil || js < -1e-12 || js > math.Ln2+1e-9 {
			return false
		}
		tv, err := TotalVariation(a, b)
		return err == nil && tv >= 0 && tv <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refAlignPair is the divergences' old first step, kept as the
// reference of the in-place walk: both histograms copied onto their
// common grid.
func refAlignPair(a, b *Hist) (pa, pb []float64, err error) {
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
	copy(pa[int(math.Round((a.Min-lo)/w)):], a.P)
	copy(pb[int(math.Round((b.Min-lo)/w)):], b.P)
	return pa, pb, nil
}

// refKL, refJS and refTV are the old formulas on refAlignPair's arrays.
func refKL(p, q *Hist, eps float64) float64 {
	pa, pb, _ := refAlignPair(p, q)
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
	return max(d, 0)
}

func refJS(p, q *Hist) float64 {
	pa, pb, _ := refAlignPair(p, q)
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
	return max(d, 0)
}

func refTV(p, q *Hist) float64 {
	pa, pb, _ := refAlignPair(p, q)
	d := 0.0
	for i := range pa {
		d += math.Abs(pa[i] - pb[i])
	}
	return d / 2
}

// TestDivergencesMatchAlignedReference: KL, JS and TotalVariation walk
// the common grid in place, bit-equal to the old formulas on copied
// arrays, over random pairs whose supports overlap, are offset, or are
// disjoint (either way round), with zero buckets inside; and none of
// them allocates.
func TestDivergencesMatchAlignedReference(t *testing.T) {
	r := rng.New(11)
	const w = 2.5
	sparse := func(n int, min float64) *Hist {
		p := make([]float64, n)
		for i := range p {
			if r.Float64() < 0.7 {
				p[i] = r.Float64()
			}
		}
		p[r.Intn(n)] += 0.5
		return New(min, w, p).Normalize()
	}
	for i := range 600 {
		a := sparse(1+r.Intn(40), float64(r.Intn(30))*w)
		var b *Hist
		switch i % 3 {
		case 0: // overlapping: the same first point
			b = sparse(1+r.Intn(40), a.Min)
		case 1: // offset inside a's support or just past it
			b = sparse(1+r.Intn(40), a.Min+float64(r.Intn(len(a.P)+1))*w)
		default: // disjoint, past a's last point
			b = sparse(1+r.Intn(40), a.MaxValue()+float64(1+r.Intn(10))*w)
		}
		if r.Intn(2) == 0 {
			a, b = b, a
		}
		for _, eps := range []float64{1e-6, 1e-9} {
			got, err := KL(a, b, eps)
			if err != nil || math.Float64bits(got) != math.Float64bits(refKL(a, b, eps)) {
				t.Fatalf("pair %d: KL(eps %g) %v (%v), reference %v", i, eps, got, err, refKL(a, b, eps))
			}
		}
		if got, err := JS(a, b); err != nil || math.Float64bits(got) != math.Float64bits(refJS(a, b)) {
			t.Fatalf("pair %d: JS %v (%v), reference %v", i, got, err, refJS(a, b))
		}
		if got, err := TotalVariation(a, b); err != nil || math.Float64bits(got) != math.Float64bits(refTV(a, b)) {
			t.Fatalf("pair %d: TotalVariation %v (%v), reference %v", i, got, err, refTV(a, b))
		}
	}
	if israce.Enabled {
		return
	}
	a, b := sparse(64, 10*w), sparse(48, 40*w)
	for name, f := range map[string]func(){
		"KL": func() { KL(a, b, 1e-6) },
		"JS": func() { JS(a, b) },
		"TV": func() { TotalVariation(a, b) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s allocates %v times a call, want 0", name, n)
		}
	}
}

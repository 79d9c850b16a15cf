package hist

import (
	"math"
	"testing"
	"testing/quick"

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

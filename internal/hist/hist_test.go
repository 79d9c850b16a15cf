package hist

import (
	"errors"
	"math"
	"testing"
)

func mustFromPairs(t *testing.T, pairs map[float64]float64, width float64) *Hist {
	t.Helper()
	h, err := FromPairs(pairs, width)
	if err != nil {
		t.Fatalf("FromPairs: %v", err)
	}
	return h
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPaperWorkedExampleConvolution(t *testing.T) {
	// H1 = {10: .5, 15: .5}, H2 = {20: .5, 25: .5} from the poster.
	h1 := mustFromPairs(t, map[float64]float64{10: 0.5, 15: 0.5}, 5)
	h2 := mustFromPairs(t, map[float64]float64{20: 0.5, 25: 0.5}, 5)
	conv, err := Convolve(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if conv.Min != 30 || conv.Width != 5 || len(conv.P) != 3 {
		t.Fatalf("conv = %v, want support {30,35,40}", conv)
	}
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if !almostEqual(conv.P[i], want[i], 1e-12) {
			t.Errorf("conv.P[%d] = %v, want %v", i, conv.P[i], want[i])
		}
	}
}

func TestPaperAirportTable(t *testing.T) {
	p1 := mustFromPairs(t, map[float64]float64{45: 0.3, 55: 0.6, 65: 0.1}, 10)
	p2 := mustFromPairs(t, map[float64]float64{45: 0.6, 55: 0.2, 65: 0.2}, 10)
	if got := p1.ProbWithinBudget(60); !almostEqual(got, 0.9, 1e-12) {
		t.Errorf("P1 P(<=60) = %v, want 0.9", got)
	}
	if got := p2.ProbWithinBudget(60); !almostEqual(got, 0.8, 1e-12) {
		t.Errorf("P2 P(<=60) = %v, want 0.8", got)
	}
	if got := p1.Mean(); !almostEqual(got, 53, 1e-9) {
		t.Errorf("P1 mean = %v, want 53", got)
	}
	if got := p2.Mean(); !almostEqual(got, 51, 1e-9) {
		t.Errorf("P2 mean = %v, want 51", got)
	}
}

func TestFromSamples(t *testing.T) {
	h, err := FromSamples([]float64{10, 10, 12, 14, 14, 14}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Min != 10 {
		t.Errorf("Min = %v, want 10", h.Min)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if !almostEqual(h.P[0], 2.0/6, 1e-12) || !almostEqual(h.P[2], 3.0/6, 1e-12) {
		t.Errorf("masses = %v", h.P)
	}
}

func TestFromSamplesErrors(t *testing.T) {
	if _, err := FromSamples(nil, 2); err == nil {
		t.Error("empty samples should error")
	}
	if _, err := FromSamples([]float64{1}, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := FromSamples([]float64{math.NaN()}, 1); err == nil {
		t.Error("NaN sample should error")
	}
	if _, err := FromSamples([]float64{math.Inf(1)}, 1); err == nil {
		t.Error("Inf sample should error")
	}
}

func TestFromPairsErrors(t *testing.T) {
	if _, err := FromPairs(nil, 5); err == nil {
		t.Error("empty pairs should error")
	}
	if _, err := FromPairs(map[float64]float64{1: 1}, 0); err == nil {
		t.Error("zero width should error")
	}
	if _, err := FromPairs(map[float64]float64{1: -1}, 1); err == nil {
		t.Error("negative weight should error")
	}
	if _, err := FromPairs(map[float64]float64{1: 0}, 1); err == nil {
		t.Error("zero total weight should error")
	}
}

// TestConstructorsRejectBadInput: a width, value or weight that is not
// finite, or a support wider than 1<<20 buckets, is an error from
// FromSamples and FromPairs — never a panic, never NaN mass — and valid
// input, up to the widest support allowed, builds the same bits as
// before.
func TestConstructorsRejectBadInput(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	build := func(name string, f func() (*Hist, error)) (h *Hist, err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", name, r)
				err = errors.New("panic")
			}
		}()
		return f()
	}
	samples := func(s []float64, width float64) func() (*Hist, error) {
		return func() (*Hist, error) { return FromSamples(s, width) }
	}
	pairs := func(p map[float64]float64, width float64) func() (*Hist, error) {
		return func() (*Hist, error) { return FromPairs(p, width) }
	}
	wide := float64(maxSupport)
	bad := []struct {
		name string
		f    func() (*Hist, error)
	}{
		{"FromSamples +Inf width", samples([]float64{1, 2, 3}, inf)},
		{"FromSamples tiny width", samples([]float64{1, 2, 3}, 1e-300)},
		{"FromSamples NaN width", samples([]float64{1, 2, 3}, nan)},
		{"FromSamples -Inf width", samples([]float64{1, 2, 3}, -inf)},
		{"FromSamples 1<<20+1 buckets", samples([]float64{0, wide}, 1)},
		{"FromSamples overflowing span", samples([]float64{-1e308, 1e308}, 1e-10)},
		{"FromPairs NaN width", pairs(map[float64]float64{1: 1}, nan)},
		{"FromPairs +Inf width", pairs(map[float64]float64{1: 1, 2: 1}, inf)},
		{"FromPairs NaN value", pairs(map[float64]float64{nan: 1, 2: 1}, 1)},
		{"FromPairs -Inf value", pairs(map[float64]float64{-inf: 1, 2: 1}, 1)},
		{"FromPairs span 1e18", pairs(map[float64]float64{0: 1, 1e18: 1}, 1)},
		{"FromPairs 1<<20+1 buckets", pairs(map[float64]float64{0: 1, wide: 1}, 1)},
		{"FromPairs +Inf weight", pairs(map[float64]float64{1: inf, 2: 1}, 1)},
		{"FromPairs NaN weight", pairs(map[float64]float64{1: nan, 2: 1}, 1)},
		{"FromPairs overflowing total", pairs(map[float64]float64{1: 1e308, 2: 1e308}, 1)},
	}
	for _, c := range bad {
		if h, err := build(c.name, c.f); err == nil {
			t.Errorf("%s = %v, want an error", c.name, h)
		}
	}

	third, sixth := 1.0/3, 1.0/6
	last := make([]float64, maxSupport)
	last[0], last[maxSupport-1] = 0.5, 0.5
	good := []struct {
		name string
		f    func() (*Hist, error)
		want *Hist
	}{
		{"FromSamples 1 2 3", samples([]float64{1, 2, 3}, 1), New(1, 1, []float64{third, third, third})},
		{"FromSamples widths of 2", samples([]float64{10, 10, 12, 14, 14, 14}, 2), New(10, 2, []float64{sixth + sixth, sixth, sixth + sixth + sixth})},
		{"FromSamples 1<<20 buckets", samples([]float64{0, wide - 1}, 1), New(0, 1, last)},
		{"FromPairs paper table", pairs(map[float64]float64{10: 0.5, 15: 0.5}, 5), New(10, 5, []float64{0.5, 0.5})},
		{"FromPairs gap", pairs(map[float64]float64{0: 1, 3: 2, 4: 1}, 1), New(0, 1, []float64{0.25, 0, 0, 0.5, 0.25})},
		{"FromPairs 1<<20 buckets", pairs(map[float64]float64{0: 1, wide - 1: 1}, 1), New(0, 1, last)},
	}
	for _, c := range good {
		h, err := build(c.name, c.f)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		same := h.Min == c.want.Min && h.Width == c.want.Width && len(h.P) == len(c.want.P)
		for i := 0; same && i < len(h.P); i++ {
			same = math.Float64bits(h.P[i]) == math.Float64bits(c.want.P[i])
		}
		if !same {
			t.Errorf("%s: Min %v Width %v %d buckets, want Min %v Width %v %d buckets, the same mass bits", c.name, h.Min, h.Width, len(h.P), c.want.Min, c.want.Width, len(c.want.P))
		}
	}
}

func TestValidate(t *testing.T) {
	good := New(0, 1, []float64{0.5, 0.5})
	if err := good.Validate(); err != nil {
		t.Errorf("valid hist rejected: %v", err)
	}
	bad := []*Hist{
		nil,
		New(0, 1, nil),
		New(0, 0, []float64{1}),
		New(0, -1, []float64{1}),
		New(math.NaN(), 1, []float64{1}),
		New(0, 1, []float64{0.5, 0.6}),
		New(0, 1, []float64{-0.1, 1.1}),
		New(0, 1, []float64{math.NaN()}),
	}
	for i, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("bad hist %d accepted", i)
		}
	}
}

func TestMeanVarianceStd(t *testing.T) {
	h := New(0, 1, []float64{0.5, 0, 0.5}) // values 0 and 2
	if m := h.Mean(); !almostEqual(m, 1, 1e-12) {
		t.Errorf("Mean = %v", m)
	}
	if v := h.Variance(); !almostEqual(v, 1, 1e-12) {
		t.Errorf("Variance = %v", v)
	}
	if s := h.Std(); !almostEqual(s, 1, 1e-12) {
		t.Errorf("Std = %v", s)
	}
}

func TestSkewness(t *testing.T) {
	sym := New(0, 1, []float64{0.25, 0.5, 0.25})
	if sk := sym.Skewness(); !almostEqual(sk, 0, 1e-9) {
		t.Errorf("symmetric skewness = %v", sk)
	}
	right := New(0, 1, []float64{0.7, 0.2, 0.05, 0.05})
	if sk := right.Skewness(); sk <= 0 {
		t.Errorf("right-skewed skewness = %v, want > 0", sk)
	}
	if sk := Delta(5, 1).Skewness(); sk != 0 {
		t.Errorf("degenerate skewness = %v", sk)
	}
}

func TestCDFAndQuantile(t *testing.T) {
	h := New(10, 5, []float64{0.2, 0.3, 0.5}) // 10, 15, 20
	tests := []struct{ x, want float64 }{
		{9, 0}, {10, 0.2}, {12, 0.2}, {15, 0.5}, {19.99, 0.5}, {20, 1}, {100, 1},
	}
	for _, tt := range tests {
		if got := h.CDF(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("CDF(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if q := h.Quantile(0.1); q != 10 {
		t.Errorf("Quantile(0.1) = %v", q)
	}
	if q := h.Quantile(0.5); q != 15 {
		t.Errorf("Quantile(0.5) = %v", q)
	}
	if q := h.Quantile(0.51); q != 20 {
		t.Errorf("Quantile(0.51) = %v", q)
	}
	if q := h.Quantile(1); q != 20 {
		t.Errorf("Quantile(1) = %v", q)
	}
	if q := h.Quantile(-1); q != 10 {
		t.Errorf("Quantile(-1) = %v", q)
	}
}

func TestShift(t *testing.T) {
	h := New(10, 5, []float64{0.5, 0.5})
	s := h.Shift(7)
	if s.Min != 17 || h.Min != 10 {
		t.Errorf("Shift: got min %v, original %v", s.Min, h.Min)
	}
	if !almostEqual(s.Mean(), h.Mean()+7, 1e-12) {
		t.Errorf("Shift mean: %v vs %v", s.Mean(), h.Mean())
	}
}

func TestConvolveErrors(t *testing.T) {
	h := New(0, 1, []float64{1})
	if _, err := Convolve(nil, h); err == nil {
		t.Error("nil input should error")
	}
	other := New(0, 2, []float64{1})
	if _, err := Convolve(h, other); err == nil {
		t.Error("width mismatch should error")
	}
}

func TestConvolveMeanAdditivity(t *testing.T) {
	a := New(4, 2, []float64{0.2, 0.5, 0.3})
	b := New(10, 2, []float64{0.6, 0.4})
	c := MustConvolve(a, b)
	if !almostEqual(c.Mean(), a.Mean()+b.Mean(), 1e-9) {
		t.Errorf("mean not additive: %v vs %v", c.Mean(), a.Mean()+b.Mean())
	}
	if !almostEqual(c.Variance(), a.Variance()+b.Variance(), 1e-9) {
		t.Errorf("variance not additive under independence")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("convolution not normalised: %v", err)
	}
}

func TestCapBuckets(t *testing.T) {
	h := New(0, 1, []float64{0.1, 0.2, 0.3, 0.2, 0.1, 0.1})
	c := h.Clone().CapBucketsInPlace(3)
	if len(c.P) != 3 {
		t.Fatalf("CapBucketsInPlace len = %d", len(c.P))
	}
	if !almostEqual(c.TotalMass(), 1, 1e-12) {
		t.Errorf("CapBucketsInPlace lost mass")
	}
	if !almostEqual(c.P[2], 0.3+0.2+0.1+0.1, 1e-12) {
		t.Errorf("tail not aggregated: %v", c.P)
	}
	if got := h.Clone().CapBucketsInPlace(10); !histsEqual(got, h) {
		t.Error("CapBucketsInPlace should be a no-op when under the cap")
	}
}

func TestTruncateAbove(t *testing.T) {
	h := New(0, 1, []float64{0.2, 0.2, 0.2, 0.2, 0.2}) // 0..4
	tr := h.Clone().TruncateAboveInPlace(2)
	if len(tr.P) != 4 {
		t.Fatalf("TruncateAboveInPlace len = %d: %v", len(tr.P), tr)
	}
	// CDF preserved at and below the cutoff.
	for _, x := range []float64{0, 1, 2} {
		if !almostEqual(tr.CDF(x), h.CDF(x), 1e-12) {
			t.Errorf("CDF(%v) changed: %v vs %v", x, tr.CDF(x), h.CDF(x))
		}
	}
	if !almostEqual(tr.TotalMass(), 1, 1e-12) {
		t.Errorf("mass lost: %v", tr.TotalMass())
	}
	// No-ops.
	if got := h.Clone().TruncateAboveInPlace(10); !histsEqual(got, h) {
		t.Error("truncate above support should be a no-op")
	}
	if got := h.Clone().TruncateAboveInPlace(-1); !histsEqual(got, h) {
		t.Error("truncate below support should be a no-op")
	}
}

func TestDominates(t *testing.T) {
	fast := New(0, 1, []float64{0.8, 0.2})
	slow := New(0, 1, []float64{0.2, 0.8})
	if !fast.Dominates(slow) {
		t.Error("fast should dominate slow")
	}
	if slow.Dominates(fast) {
		t.Error("slow should not dominate fast")
	}
	if !fast.DominatesOrEqual(fast.Clone()) {
		t.Error("identical distributions dominate-or-equal")
	}
	if fast.Dominates(fast.Clone()) {
		t.Error("identical distributions must not strictly dominate")
	}
	// Crossing CDFs: neither dominates.
	a := New(0, 1, []float64{0.5, 0, 0.5})
	b := New(0, 1, []float64{0.3, 0.5, 0.2})
	if a.Dominates(b) || b.Dominates(a) {
		t.Error("crossing CDFs should be incomparable")
	}
}

func TestDominatesShiftedSupports(t *testing.T) {
	early := New(0, 1, []float64{0.5, 0.5})
	late := New(5, 1, []float64{0.5, 0.5})
	if !early.Dominates(late) {
		t.Error("strictly earlier distribution should dominate")
	}
	if late.DominatesOrEqual(early) {
		t.Error("later distribution must not dominate earlier")
	}
}

func TestMixture(t *testing.T) {
	a := New(0, 1, []float64{1})
	b := New(2, 1, []float64{1})
	m, err := Mixture([]*Hist{a, b}, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.P[0], 0.25, 1e-12) || !almostEqual(m.P[2], 0.75, 1e-12) {
		t.Errorf("Mixture = %v", m)
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Mixture not normalised: %v", err)
	}
	if _, err := Mixture(nil, nil); err == nil {
		t.Error("empty mixture should error")
	}
	if _, err := Mixture([]*Hist{a}, []float64{0}); err == nil {
		t.Error("zero-weight mixture should error")
	}
}

func TestTrim(t *testing.T) {
	h := New(0, 1, []float64{0, 0, 0.5, 0.5, 0, 0})
	h.Trim()
	if h.Min != 2 || len(h.P) != 2 {
		t.Errorf("Trim = %v", h)
	}
	if err := h.Validate(); err != nil {
		t.Errorf("Trim broke normalisation: %v", err)
	}
}

func TestNormalizePanicsOnZeroMass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Normalize on zero mass should panic")
		}
	}()
	New(0, 1, []float64{0, 0}).Normalize()
}

func TestStringElidesTinyMass(t *testing.T) {
	h := New(0, 1, []float64{0.9995, 0.0005 - 1e-6, 1e-6})
	s := h.String()
	if s != "{0: 0.999}" && s != "{0: 1.000}" {
		t.Errorf("String = %q", s)
	}
}

package stats

import (
	"math"
	"testing"

	"stochroute/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestPearson(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	yPerfect := []float64{2, 4, 6, 8, 10}
	r, err := Pearson(x, yPerfect)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect correlation = %v", r)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(x, yNeg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect anti-correlation = %v", r)
	}
	if _, err := Pearson(x, []float64{1}); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); err == nil {
		t.Error("constant input should error")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Error("single pair should error")
	}
}

func TestRegularizedGammaP(t *testing.T) {
	// P(1, x) = 1 - e^{-x}.
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := 1 - math.Exp(-x)
		if got := RegularizedGammaP(1, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(1, %v) = %v, want %v", x, got, want)
		}
	}
	// P(0.5, x) = erf(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erf(math.Sqrt(x))
		if got := RegularizedGammaP(0.5, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("P(0.5, %v) = %v, want %v", x, got, want)
		}
	}
	if got := RegularizedGammaP(1, 0); got != 0 {
		t.Errorf("P(a, 0) = %v", got)
	}
	if !math.IsNaN(RegularizedGammaP(-1, 1)) {
		t.Error("negative a should give NaN")
	}
}

func TestChiSquareSurvivalCriticalValues(t *testing.T) {
	// Textbook 5% critical values.
	tests := []struct {
		x, df float64
	}{
		{3.841, 1}, {5.991, 2}, {7.815, 3}, {9.488, 4},
	}
	for _, tt := range tests {
		if got := ChiSquareSurvival(tt.x, tt.df); !almostEqual(got, 0.05, 0.001) {
			t.Errorf("ChiSquareSurvival(%v, %v) = %v, want ~0.05", tt.x, tt.df, got)
		}
	}
	if got := ChiSquareSurvival(0, 3); got != 1 {
		t.Errorf("ChiSquareSurvival(0) = %v", got)
	}
	if got := ChiSquareSurvival(1000, 1); got > 1e-12 {
		t.Errorf("ChiSquareSurvival(1000, 1) = %v", got)
	}
}

func TestChiSquareIndependenceDetectsDependence(t *testing.T) {
	// Strong diagonal: X == Y.
	tab := NewContingencyTable(3, 3)
	for i := 0; i < 3; i++ {
		for n := 0; n < 30; n++ {
			tab.Add(i, i)
		}
	}
	res, err := ChiSquareIndependence(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Dependent(0.05) {
		t.Errorf("perfect dependence not detected: p = %v", res.PValue)
	}
	if res.DF != 4 {
		t.Errorf("DF = %d, want 4", res.DF)
	}
}

func TestChiSquareIndependenceAcceptsIndependence(t *testing.T) {
	r := rng.New(5)
	rejections := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		tab := NewContingencyTable(3, 3)
		for n := 0; n < 200; n++ {
			tab.Add(r.Intn(3), r.Intn(3))
		}
		res, err := ChiSquareIndependence(tab)
		if err != nil {
			t.Fatal(err)
		}
		if res.Dependent(0.05) {
			rejections++
		}
	}
	// False positive rate should be near alpha = 5%.
	if rejections < 1 || rejections > 30 {
		t.Errorf("independent data rejected %d/%d times", rejections, trials)
	}
}

func TestChiSquareIndependenceErrors(t *testing.T) {
	if _, err := ChiSquareIndependence(NewContingencyTable(3, 3)); err == nil {
		t.Error("empty table should error")
	}
	tab := NewContingencyTable(3, 3)
	for n := 0; n < 10; n++ {
		tab.Add(0, 0) // single cell: 1 live row, 1 live col
	}
	if _, err := ChiSquareIndependence(tab); err == nil {
		t.Error("degenerate table should error")
	}
}

func TestChiSquareDropsEmptyRows(t *testing.T) {
	tab := NewContingencyTable(5, 5)
	// Only rows/cols 0 and 4 are used.
	for n := 0; n < 25; n++ {
		tab.Add(0, 0)
		tab.Add(4, 4)
		tab.Add(0, 4)
		tab.Add(4, 0)
	}
	res, err := ChiSquareIndependence(tab)
	if err != nil {
		t.Fatal(err)
	}
	if res.DF != 1 {
		t.Errorf("DF = %d, want 1 after dropping empty rows/cols", res.DF)
	}
	if res.Dependent(0.05) {
		t.Errorf("balanced table flagged dependent: p = %v", res.PValue)
	}
}

func TestMutualInformation(t *testing.T) {
	// Perfect dependence over 2 symbols: MI = ln 2.
	tab := NewContingencyTable(2, 2)
	for n := 0; n < 50; n++ {
		tab.Add(0, 0)
		tab.Add(1, 1)
	}
	if mi := MutualInformation(tab); !almostEqual(mi, math.Ln2, 1e-9) {
		t.Errorf("MI = %v, want ln 2", mi)
	}
	// Independence: MI = 0.
	ind := NewContingencyTable(2, 2)
	for n := 0; n < 25; n++ {
		ind.Add(0, 0)
		ind.Add(0, 1)
		ind.Add(1, 0)
		ind.Add(1, 1)
	}
	if mi := MutualInformation(ind); !almostEqual(mi, 0, 1e-9) {
		t.Errorf("independent MI = %v", mi)
	}
	if mi := MutualInformation(NewContingencyTable(2, 2)); mi != 0 {
		t.Errorf("empty MI = %v", mi)
	}
}

package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := New(43)
	same := 0
	a = New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched %d/100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(1)
	c1 := parent.Split("alpha")
	c2 := parent.Split("beta")
	same := 0
	for i := 0; i < 1000; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split children matched %d/1000 draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v outside [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(7)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("uniform mean %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	counts := make([]int, 7)
	for i := 0; i < 70000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
		counts[v]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Errorf("Intn(7) value %d drawn %d times, want ~10000", v, c)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(5, 2)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("normal mean %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.15 {
		t.Errorf("normal variance %v, want ~4", variance)
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := New(23)
	w := []float64{1, 2, 3, 4}
	counts := make([]int, 4)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * n
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("categorical[%d] = %d, want ~%.0f", i, c, want)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	cases := [][]float64{{0, 0}, {-1, 2}, {}}
	for _, w := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Categorical(%v) should panic", w)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(29)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v at duplicate/range", v)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Errorf("Bool(0.3) frequency %v", frac)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(41)
	for i := 0; i < 10000; i++ {
		v := r.Range(-3, 7)
		if v < -3 || v >= 7 {
			t.Fatalf("Range(-3,7) = %v", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(0, 1)
	}
}

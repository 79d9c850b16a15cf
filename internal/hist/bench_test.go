package hist

import (
	"testing"

	"stochroute/internal/rng"
)

func benchPair(widthA, widthB int) (*Hist, *Hist) {
	r := rng.New(1)
	a := make([]float64, widthA)
	b := make([]float64, widthB)
	for i := range a {
		a[i] = r.Float64()
	}
	for i := range b {
		b[i] = r.Float64()
	}
	return New(100, 2, a).Normalize(), New(10, 2, b).Normalize()
}

func BenchmarkConvolve128x8(b *testing.B) {
	x, y := benchPair(128, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MustConvolve(x, y)
	}
}

func BenchmarkConvolve512x16(b *testing.B) {
	x, y := benchPair(512, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MustConvolve(x, y)
	}
}

func BenchmarkConvolveInto128x8(b *testing.B) {
	x, y := benchPair(128, 8)
	var arena Arena
	dst := arena.NewHist(0, 0, len(x.P)+len(y.P)-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConvolveInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConvolveInto512x16(b *testing.B) {
	x, y := benchPair(512, 16)
	var arena Arena
	dst := arena.NewHist(0, 0, len(x.P)+len(y.P)-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConvolveInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvolveIntoDense is the kernel benchmark: a fully dense
// 512x64 convolution, the shape the vectorized scaled-accumulate is
// built for.
func BenchmarkConvolveIntoDense(b *testing.B) {
	x, y := benchPair(512, 64)
	var arena Arena
	dst := arena.NewHist(0, 0, len(x.P)+len(y.P)-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ConvolveInto(dst, x, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareCDF(b *testing.B) {
	x, _ := benchPair(256, 8)
	y := x.Shift(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = CompareCDF(x, y)
	}
}

func BenchmarkCDF(b *testing.B) {
	x, _ := benchPair(256, 8)
	for i := 0; i < b.N; i++ {
		_ = x.CDF(300)
	}
}

func BenchmarkKL(b *testing.B) {
	x, _ := benchPair(64, 8)
	y := x.Shift(2)
	for i := 0; i < b.N; i++ {
		_, _ = KL(x, y, 1e-9)
	}
}

func BenchmarkFromSamples(b *testing.B) {
	r := rng.New(2)
	samples := make([]float64, 200)
	for i := range samples {
		samples[i] = 20 + 2*float64(r.Intn(30))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _ = FromSamples(samples, 2)
	}
}

package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64 // meters
		tol  float64
	}{
		{"same point", Point{57, 9.9}, Point{57, 9.9}, 0, 0.001},
		{"aalborg-copenhagen", Point{57.0488, 9.9217}, Point{55.6761, 12.5683}, 223_300, 2_000},
		{"one degree latitude", Point{0, 0}, Point{1, 0}, 111_195, 100},
		{"one degree longitude at equator", Point{0, 0}, Point{0, 1}, 111_195, 100},
		{"antipodal-ish", Point{0, 0}, Point{0, 180}, math.Pi * EarthRadiusMeters, 1_000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Haversine(tt.a, tt.b)
			if !almostEqual(got, tt.want, tt.tol) {
				t.Errorf("Haversine(%v, %v) = %.0f, want %.0f ± %.0f", tt.a, tt.b, got, tt.want, tt.tol)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{Lat: math.Mod(lat1, 89), Lon: math.Mod(lon1, 179)}
		b := Point{Lat: math.Mod(lat2, 89), Lon: math.Mod(lon2, 179)}
		return almostEqual(Haversine(a, b), Haversine(b, a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestApproxDistanceCloseToHaversine(t *testing.T) {
	a := Point{57.0, 9.9}
	for _, d := range []float64{100, 1000, 10_000, 50_000} {
		for _, brg := range []float64{0, 45, 90, 135, 200, 300} {
			b := Destination(a, brg, d)
			hv := Haversine(a, b)
			ap := ApproxDistance(a, b)
			if math.Abs(hv-ap)/hv > 0.01 {
				t.Errorf("ApproxDistance off by >1%% at d=%v brg=%v: haversine %.1f approx %.1f", d, brg, hv, ap)
			}
		}
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	start := Point{57.0, 9.9}
	for _, brg := range []float64{0, 90, 180, 270, 37.5} {
		for _, d := range []float64{10, 500, 25_000} {
			end := Destination(start, brg, d)
			if got := Haversine(start, end); !almostEqual(got, d, d*0.001+0.01) {
				t.Errorf("Destination(%v, %v): distance %v, want %v", brg, d, got, d)
			}
		}
	}
}

func TestPointValid(t *testing.T) {
	valid := []Point{{0, 0}, {90, 180}, {-90, -180}, {57, 9.9}}
	for _, p := range valid {
		if !p.Valid() {
			t.Errorf("%v should be valid", p)
		}
	}
	invalid := []Point{{91, 0}, {-91, 0}, {0, 181}, {0, -181}, {math.NaN(), 0}, {0, math.NaN()}}
	for _, p := range invalid {
		if p.Valid() {
			t.Errorf("%v should be invalid", p)
		}
	}
}

func TestBBox(t *testing.T) {
	b := EmptyBBox()
	if !b.Empty() {
		t.Fatal("EmptyBBox should be empty")
	}
	if b.DiagonalMeters() != 0 {
		t.Error("empty box diagonal should be 0")
	}
	b = b.Extend(Point{57, 9.9})
	b = b.Extend(Point{57.1, 10.0})
	if b.Empty() {
		t.Fatal("extended box should not be empty")
	}
	if !b.Contains(Point{57.05, 9.95}) {
		t.Error("box should contain interior point")
	}
	if b.Contains(Point{56.9, 9.95}) {
		t.Error("box should not contain exterior point")
	}
	center := b.Center()
	if !almostEqual(center.Lat, 57.05, 1e-9) || !almostEqual(center.Lon, 9.95, 1e-9) {
		t.Errorf("center = %v", center)
	}
	if b.DiagonalMeters() <= 0 {
		t.Error("diagonal should be positive")
	}
}

func TestBBoxExtendIsMonotone(t *testing.T) {
	f := func(lats, lons [6]float64) bool {
		b := EmptyBBox()
		for i := 0; i < 6; i++ {
			p := Point{Lat: math.Mod(lats[i], 90), Lon: math.Mod(lons[i], 180)}
			b = b.Extend(p)
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkHaversine(b *testing.B) {
	p1 := Point{57.0488, 9.9217}
	p2 := Point{55.6761, 12.5683}
	for i := 0; i < b.N; i++ {
		_ = Haversine(p1, p2)
	}
}

func BenchmarkApproxDistance(b *testing.B) {
	p1 := Point{57.0488, 9.9217}
	p2 := Point{57.06, 9.95}
	for i := 0; i < b.N; i++ {
		_ = ApproxDistance(p1, p2)
	}
}

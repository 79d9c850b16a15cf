package hist

import (
	"math"
	"testing"
	"testing/quick"

	"stochroute/internal/rng"
)

func histsEqual(a, b *Hist) bool {
	if a.Min != b.Min || a.Width != b.Width || len(a.P) != len(b.P) {
		return false
	}
	for i := range a.P {
		if a.P[i] != b.P[i] { // bit-exact, not approximate
			return false
		}
	}
	return true
}

// TestQuickConvolveIntoMatchesConvolve is the kernel-equivalence
// property: ConvolveInto into a recycled, dirty arena buffer is
// bit-identical to the allocating Convolve.
func TestQuickConvolveIntoMatchesConvolve(t *testing.T) {
	var arena Arena
	f := func(seed uint64) bool {
		r := rng.New(seed)
		a := randHist(r, 2, 20)
		b := randHist(r, 2, 20)
		want := MustConvolve(a, b)

		// Dirty destination: an arena buffer previously used and freed.
		junk := arena.NewHist(0, 1, len(a.P)+len(b.P)-1)
		for i := range junk.P {
			junk.P[i] = math.Inf(1)
		}
		arena.Recycle(junk)

		dst := arena.NewHist(0, 0, len(a.P)+len(b.P)-1)
		if err := ConvolveInto(dst, a, b); err != nil {
			t.Logf("ConvolveInto: %v", err)
			return false
		}
		if !histsEqual(want, dst) {
			return false
		}
		arena.Recycle(dst)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickCDFShiftedMatchesShiftCDF pins the no-copy shift-aware CDF
// to the clone-based Shift+CDF pair it replaces, bit for bit.
func TestQuickCDFShiftedMatchesShiftCDF(t *testing.T) {
	f := func(seed uint64, rawDelta, rawX float64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 24)
		delta := math.Mod(rawDelta, 500)
		if math.IsNaN(delta) {
			delta = 0
		}
		shifted := h.Shift(delta)
		// Probe support points, bucket edges, and an arbitrary x.
		probes := []float64{shifted.Min - 1, shifted.Min, shifted.MaxValue(), shifted.MaxValue() + 1}
		for i := range h.P {
			probes = append(probes, shifted.Value(i), shifted.Value(i)+h.Width/3)
		}
		if !math.IsNaN(rawX) && !math.IsInf(rawX, 0) {
			probes = append(probes, math.Mod(rawX, 1000))
		}
		for _, x := range probes {
			if got, want := h.CDFShifted(x, delta), shifted.CDF(x); got != want {
				t.Logf("CDFShifted(%v, %v) = %v, Shift+CDF = %v", x, delta, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickInPlaceVariantsMatch states what the in-place mutators
// promise: truncation preserves the CDF at every support point up to
// the cut and the total mass, capping keeps the prefix below the cap
// and the total mass within the bucket limit, and TrimInPlace is Trim
// bit for bit (the one mutator whose allocating sibling is kept, for
// right-sizing resident marginals).
func TestQuickInPlaceVariantsMatch(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		h := randHist(r, 2, 24)

		cut := h.Min + r.Float64()*(h.MaxValue()-h.Min+8)
		got := h.Clone().TruncateAboveInPlace(cut)
		if math.Abs(got.TotalMass()-h.TotalMass()) > 1e-12 {
			t.Log("TruncateAboveInPlace changed the total mass")
			return false
		}
		for i := range h.P {
			if v := h.Value(i); v <= cut && got.CDF(v) != h.CDF(v) {
				t.Logf("TruncateAboveInPlace changed CDF(%v) below the cut %v", v, cut)
				return false
			}
		}

		capN := 1 + r.Intn(len(h.P)+4)
		got = h.Clone().CapBucketsInPlace(capN)
		if len(got.P) > capN || math.Abs(got.TotalMass()-h.TotalMass()) > 1e-12 {
			t.Log("CapBucketsInPlace exceeded the cap or changed the total mass")
			return false
		}
		for i := 0; i < len(got.P)-1; i++ {
			if got.P[i] != h.P[i] {
				t.Log("CapBucketsInPlace changed a bucket below the cap")
				return false
			}
		}

		// Sprinkle dust so Trim has something to remove.
		dusty := h.Clone()
		dusty.P[0] = massEpsilon / 2
		dusty.P[len(dusty.P)-1] = massEpsilon / 3
		want := dusty.Clone().Trim()
		got = dusty.Clone().TrimInPlace()
		if !histsEqual(want, got) {
			t.Log("TrimInPlace mismatch")
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArenaAllocRecycleReset(t *testing.T) {
	var a Arena

	// Buffers come back with the requested length and full class capacity.
	b1 := a.Alloc(12)
	if len(b1) != 12 || cap(b1) != 16 {
		t.Fatalf("Alloc(12): len=%d cap=%d, want 12/16", len(b1), cap(b1))
	}
	for i := range b1 {
		b1[i] = 7
	}
	a.Free(b1)

	// A fitting Alloc reuses the freed buffer (same backing array).
	b2 := a.Alloc(10)
	if cap(b2) != 16 || &b2[0:16][15] != &b1[0:16][15] {
		t.Error("Alloc after Free did not recycle the buffer")
	}

	// NewHistZeroed clears recycled contents.
	a.Free(b2)
	for i, v := range a.NewHistZeroed(0, 1, 16).P {
		if v != 0 {
			t.Fatalf("NewHistZeroed P[%d] = %v", i, v)
		}
	}

	// Distinct live allocations never alias.
	x, y := a.Alloc(100), a.Alloc(100)
	x[0], y[0] = 1, 2
	if x[0] != 1 {
		t.Error("live allocations alias")
	}

	// Headers and clones behave like ordinary histograms.
	src := Uniform(10, 2, 6)
	cl := a.CloneHist(src)
	if !histsEqual(src, cl) {
		t.Error("CloneHist mismatch")
	}
	cl.P[0] = 99
	if src.P[0] == 99 {
		t.Error("CloneHist shares storage with source")
	}

	// Reset reuses block memory: a warmed arena allocates the same
	// backing region again.
	a.Reset()
	b4 := a.Alloc(12)
	if cap(b4) != 16 {
		t.Fatalf("post-Reset Alloc cap = %d", cap(b4))
	}

	// Oversized requests still work.
	big := a.Alloc(arenaBlockFloats * 3)
	if len(big) != arenaBlockFloats*3 {
		t.Fatal("oversized Alloc")
	}
	a.Free(big)
}

func TestArenaHeaderSlabGrowth(t *testing.T) {
	var a Arena
	seen := make(map[*Hist]bool, 3*arenaHistSlab)
	for i := 0; i < 3*arenaHistSlab; i++ {
		h := a.NewHistZeroed(1, 2, 4)
		if seen[h] {
			t.Fatalf("header %d handed out twice", i)
		}
		seen[h] = true
		h.P[0] = 1
		if h.TotalMass() != 1 {
			t.Fatal("header not usable")
		}
	}
	a.Reset()
	h := a.NewHist(0, 1, 2)
	if !seen[h] {
		t.Error("Reset did not rewind the header slab")
	}
}

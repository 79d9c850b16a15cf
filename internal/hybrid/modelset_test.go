package hybrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"stochroute/internal/hist"
)

func TestSingleModelSetDelegates(t *testing.T) {
	m, _ := getModel(t)
	ms := SingleModelSet(m)
	if ms.K() != 1 {
		t.Fatalf("K = %d", ms.K())
	}
	if ms.At(0) != m || ms.At(5) != m || ms.At(-1) != m {
		t.Error("At must clamp to the single model")
	}
	for _, depart := range []float64{0, 30000, 86399} {
		if ms.SliceOf(depart) != 0 {
			t.Errorf("SliceOf(%v) != 0 on a 1-slice set", depart)
		}
	}
}

func TestModelSetValidation(t *testing.T) {
	m, _ := getModel(t)
	if _, err := NewModelSet(nil); err == nil {
		t.Error("empty set should error")
	}
	if _, err := NewModelSet([]*Model{m, nil}); err == nil {
		t.Error("nil slice model should error")
	}
	if _, err := ms2(t).WithSlice(5, m); err == nil {
		t.Error("out-of-range WithSlice should error")
	}
	set := ms2(t)
	clone := &Model{KB: m.KB, Estimator: m.Estimator, Classifier: m.Classifier, Mode: m.Mode, MaxBuckets: m.MaxBuckets}
	next, err := set.WithSlice(1, clone)
	if err != nil {
		t.Fatal(err)
	}
	if next.At(1) != clone || next.At(0) != set.At(0) {
		t.Error("WithSlice must replace exactly one slice")
	}
	if set.At(1) == clone {
		t.Error("WithSlice must not mutate the original set")
	}
}

// ms2 builds a 2-slice set from the shared trained model (both slices
// share weights, which the set permits — slices are independent serving
// units, not necessarily distinct networks).
func ms2(t *testing.T) *ModelSet {
	t.Helper()
	m, _ := getModel(t)
	set, err := NewModelSet([]*Model{m, m})
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestModelSetPersistSingleSlice: a classic time-homogeneous model is
// the SRH2 set with K = 1, and it survives the write/read cycle
// bit-identically — hyper-parameters, classifier threshold and mode,
// and every learned weight (a second write reproduces the bytes).
func TestModelSetPersistSingleSlice(t *testing.T) {
	m, _ := getModel(t)
	var first bytes.Buffer
	if err := WriteModelSet(&first, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(first.Bytes(), []byte("SRH2\x01\x00\x00\x00")) {
		t.Fatalf("1-slice set must be written as SRH2 with K = 1, got header %q", first.Bytes()[:8])
	}
	set, err := ReadModelSet(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if set.K() != 1 {
		t.Fatalf("K = 1 file loaded as %d slices", set.K())
	}
	got := set.At(0)
	if got.MaxBuckets != m.MaxBuckets || got.Mode != m.Mode {
		t.Errorf("MaxBuckets/Mode = %d/%v, want %d/%v", got.MaxBuckets, got.Mode, m.MaxBuckets, m.Mode)
	}
	if got.Classifier.Threshold != m.Classifier.Threshold {
		t.Errorf("threshold = %v, want %v", got.Classifier.Threshold, m.Classifier.Threshold)
	}
	if got.Estimator.Width != m.Estimator.Width || got.Estimator.Cfg.Bands != m.Estimator.Cfg.Bands ||
		got.Estimator.Cfg.CondBuckets != m.Estimator.Cfg.CondBuckets {
		t.Errorf("estimator shape = %v %+v, want %v %+v", got.Estimator.Width, got.Estimator.Cfg, m.Estimator.Width, m.Estimator.Cfg)
	}
	var second bytes.Buffer
	if err := WriteModelSet(&second, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("re-serialising the loaded set changed the bytes: a weight did not round-trip")
	}
}

// TestModelSetPersistRejectsSRHM: the retired single-model format fails
// with the error that names it and the command that regenerates the
// file — never "bad magic", never by parsing the body as a slice count.
func TestModelSetPersistRejectsSRHM(t *testing.T) {
	m, _ := getModel(t)
	var cur bytes.Buffer
	if err := WriteModelSet(&cur, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	// What the retired writer emitted: its magic, then one model body.
	retired := append([]byte("SRHM"), cur.Bytes()[8:]...)
	for name, img := range map[string][]byte{"whole file": retired, "magic only": []byte("SRHM")} {
		set, err := ReadModelSet(bytes.NewReader(img))
		if !errors.Is(err, ErrSRHMRetired) || set != nil {
			t.Errorf("%s: ReadModelSet = %v, %v; want nil, ErrSRHMRetired", name, set, err)
		}
	}
	for _, want := range []string{"SRHM", "cmd/train", "SRH2"} {
		if !strings.Contains(ErrSRHMRetired.Error(), want) {
			t.Errorf("retirement error %q does not mention %s", ErrSRHMRetired, want)
		}
	}
}

// TestModelSetPersistBounds: truncated files and implausible counts —
// the bounds ReadModelSet holds against untrusted bytes — still fail.
func TestModelSetPersistBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, ms2(t)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 3, 4, 7, 8, 20, len(full) / 2, len(full) - 1} {
		if _, err := ReadModelSet(bytes.NewReader(full[:n])); err == nil {
			t.Errorf("file truncated to %d of %d bytes should error", n, len(full))
		}
	}
	withK := func(k uint32) []byte {
		img := append([]byte{}, full...)
		binary.LittleEndian.PutUint32(img[4:], k)
		return img
	}
	for _, k := range []uint32{0, 257, 1 << 31} {
		_, err := ReadModelSet(bytes.NewReader(withK(k)))
		if err == nil || !strings.Contains(err.Error(), "implausible slice count") {
			t.Errorf("K = %d: err = %v, want implausible slice count", k, err)
		}
	}
	// A count larger than the bodies present is a truncation.
	if _, err := ReadModelSet(bytes.NewReader(withK(3))); err == nil {
		t.Error("K = 3 over two bodies should error")
	}
	// An estimator shape outside its bounds: bands is the uint32 after
	// width (8), max buckets (4) and mode (1) of the first body.
	img := append([]byte{}, full...)
	binary.LittleEndian.PutUint32(img[8+13:], 65)
	if _, err := ReadModelSet(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "implausible estimator shape") {
		t.Errorf("65 bands: err = %v, want implausible estimator shape", err)
	}
}

// TestModelSetPersistV2RoundTrip: a multi-slice set survives the SRH2
// write/read cycle with every slice reproducing its original
// distributions.
func TestModelSetPersistV2RoundTrip(t *testing.T) {
	e := getEnv(t)
	set := ms2(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("SRH2")) {
		t.Fatal("multi-slice set must use the SRH2 format")
	}
	got, err := ReadModelSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 2 {
		t.Fatalf("round trip K = %d, want 2", got.K())
	}
	pairs := e.obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		t.Fatal("no pairs with support")
	}
	for s := 0; s < got.K(); s++ {
		loaded := got.At(s)
		if err := loaded.AttachKB(e.kb); err != nil {
			t.Fatal(err)
		}
		loaded.MaxBuckets = set.At(s).MaxBuckets
		for _, k := range pairs[:min(len(pairs), 10)] {
			a, err := set.At(s).PairSumEstimate(k.First, k.Second)
			if err != nil {
				t.Fatal(err)
			}
			b, err := loaded.PairSumEstimate(k.First, k.Second)
			if err != nil {
				t.Fatal(err)
			}
			tv, err := hist.TotalVariation(a, b)
			if err != nil {
				t.Fatal(err)
			}
			if tv > 1e-12 {
				t.Fatalf("slice %d pair %v differs by TV %v after round trip", s, k, tv)
			}
		}
	}
	if _, err := ReadModelSet(bytes.NewReader([]byte("nope-this-is-junk"))); err == nil {
		t.Error("bad magic should error")
	}
}

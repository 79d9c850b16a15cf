package hybrid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stochroute/internal/hist"
	"stochroute/internal/israce"
	"stochroute/internal/ml"
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
	if _, err := set.WithSlice(1, &Model{KB: &KnowledgeBase{Width: 2 * m.KB.Width}}); err == nil {
		t.Error("WithSlice accepted a model on another grid width")
	}
	if _, err := set.WithSlice(0, nil); err == nil {
		t.Error("WithSlice accepted a nil model")
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
// the SRH3 set with K = 1, and it survives the write/read cycle
// bit-identically — hyper-parameters, training recipe, classifier
// threshold and mode, and every learned weight (a second write
// reproduces the bytes).
func TestModelSetPersistSingleSlice(t *testing.T) {
	m, _ := getModel(t)
	var first bytes.Buffer
	if err := WriteModelSet(&first, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(first.Bytes(), []byte("SRH3\x01\x00\x00\x00")) {
		t.Fatalf("1-slice set must be written as SRH3 with K = 1, got header %q", first.Bytes()[:8])
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
	want, err := m.Recipe()
	if recipe, _ := got.Recipe(); err != nil || !reflect.DeepEqual(recipe, want) {
		t.Errorf("recipe read back as %+v, want %+v", recipe, want)
	}
	if trained := smallTrainConfig(); want.MinPairObs != trained.MinPairObs || want.PrefixRows != trained.PrefixRows ||
		want.Estimator.Train.Epochs != trained.Estimator.Train.Epochs || !reflect.DeepEqual(want.Estimator.Hidden, trained.Estimator.Hidden) {
		t.Errorf("Train recorded %+v, not the config it trained on %+v", want, trained)
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
	for _, want := range []string{"SRHM", "cmd/train", "SRH3"} {
		if !strings.Contains(ErrSRHMRetired.Error(), want) {
			t.Errorf("retirement error %q does not mention %s", ErrSRHMRetired, want)
		}
	}
}

// TestModelSetPersistRejectsSRH2: a file of the recipe-less SRH2 format
// fails with the error that names it and the command that regenerates
// the file, and never parses as a body.
func TestModelSetPersistRejectsSRH2(t *testing.T) {
	m, _ := getModel(t)
	var cur bytes.Buffer
	if err := WriteModelSet(&cur, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	// What the SRH2 writer emitted: the magic, K, and a body without the
	// recipe's 24 bytes after the 29-byte hyper-parameter head.
	img := cur.Bytes()
	retired := append(append([]byte("SRH2"), img[4:8+29]...), img[8+29+24:]...)
	for name, img := range map[string][]byte{"whole file": retired, "magic only": []byte("SRH2")} {
		set, err := ReadModelSet(bytes.NewReader(img))
		if !errors.Is(err, ErrSRH2Retired) || set != nil {
			t.Errorf("%s: ReadModelSet = %v, %v; want nil, ErrSRH2Retired", name, set, err)
		}
	}
	for _, want := range []string{"SRH2", "cmd/train", "SRH3"} {
		if !strings.Contains(ErrSRH2Retired.Error(), want) {
			t.Errorf("retirement error %q does not mention %s", ErrSRH2Retired, want)
		}
	}
}

// TestModelSetPersistRejectsBadRecipe: a body whose recipe fails
// Config.Validate — a grid width that is not positive and finite, a
// zero pair threshold, protocol size or epoch count — fails to load,
// and a model without a recipe is not written at all.
func TestModelSetPersistRejectsBadRecipe(t *testing.T) {
	m, _ := getModel(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// The first body's head: width at byte 8, then (after max buckets,
	// mode, bands, cond buckets and threshold) min pair obs at 37, train
	// and test pairs at 41 and 45, prefix rows at 49, epochs at 53.
	if got := binary.LittleEndian.Uint32(full[37:]); int(got) != smallTrainConfig().MinPairObs {
		t.Fatalf("byte 37 holds %d, not the min pair obs %d", got, smallTrainConfig().MinPairObs)
	}
	for name, patch := range map[string]func(img []byte){
		"width 0":       func(img []byte) { binary.LittleEndian.PutUint64(img[8:], math.Float64bits(0)) },
		"width -2":      func(img []byte) { binary.LittleEndian.PutUint64(img[8:], math.Float64bits(-2)) },
		"width NaN":     func(img []byte) { binary.LittleEndian.PutUint64(img[8:], math.Float64bits(math.NaN())) },
		"width +Inf":    func(img []byte) { binary.LittleEndian.PutUint64(img[8:], math.Float64bits(math.Inf(1))) },
		"min obs 0":     func(img []byte) { binary.LittleEndian.PutUint32(img[37:], 0) },
		"train pairs 0": func(img []byte) { binary.LittleEndian.PutUint32(img[41:], 0) },
		"test pairs 0":  func(img []byte) { binary.LittleEndian.PutUint32(img[45:], 0) },
		"epochs 0":      func(img []byte) { binary.LittleEndian.PutUint32(img[53:], 0) },
		"no recipe":     func(img []byte) { clear(img[37:53]) },
	} {
		img := append([]byte{}, full...)
		patch(img)
		if set, err := ReadModelSet(bytes.NewReader(img)); err == nil || set != nil {
			t.Errorf("%s: ReadModelSet = %v, %v; want a refusal", name, set, err)
		}
	}
	bare := &Model{Estimator: m.Estimator, Classifier: m.Classifier, Mode: m.Mode, MaxBuckets: m.MaxBuckets}
	if err := WriteModelSet(io.Discard, SingleModelSet(bare)); !errors.Is(err, errNoRecipe) {
		t.Errorf("writing a model without a recipe: err = %v, want errNoRecipe", err)
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

// TestModelSetPersistRejectsContradictoryShape: a file whose parts do
// not fit one another fails to load instead of routing on a misread
// estimator. Bands and CondBuckets of the first body sit at bytes 21
// and 25; any value within their bounds but the network's is a
// contradiction. Parts that disagree among themselves are written
// through the writer, which does not check them; a network without
// layers it refuses, as the SRML reader would.
func TestModelSetPersistRejectsContradictoryShape(t *testing.T) {
	m, _ := getModel(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, SingleModelSet(m)); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if got := binary.LittleEndian.Uint32(full[21:]); got != uint32(m.Estimator.Cfg.Bands) {
		t.Fatalf("byte 21 holds %d, not the %d bands", got, m.Estimator.Cfg.Bands)
	}
	for _, patch := range []struct {
		at int
		v  uint32
	}{{21, 8}, {21, 2}, {25, 12}, {25, 48}} {
		img := append([]byte{}, full...)
		binary.LittleEndian.PutUint32(img[patch.at:], patch.v)
		if _, err := ReadModelSet(bytes.NewReader(img)); err == nil || !strings.Contains(err.Error(), "outputs") {
			t.Errorf("%d at byte %d: err = %v, want the network's outputs named", patch.v, patch.at, err)
		}
	}

	narrow := func(s *ml.StandardScaler) *ml.StandardScaler {
		return &ml.StandardScaler{Mean: s.Mean[1:], Std: s.Std[1:]}
	}
	layers := m.Estimator.Net.Layers
	for name, tc := range map[string]struct {
		edit func(e *Estimator, c *Classifier)
		want string
	}{
		"estimator scaler narrower than the network": {func(e *Estimator, c *Classifier) { e.Scaler = narrow(e.Scaler) }, "estimator scaler"},
		"dense layers that do not chain": {func(e *Estimator, c *Classifier) {
			odd := append([]*ml.Dense{}, layers...)
			odd[1] = &ml.Dense{W: ml.NewMatrix(m.Estimator.Cfg.Hidden[0], 7), B: ml.NewMatrix(1, 7)}
			e.Net = &ml.Network{Layers: odd}
		}, "takes"},
		"a network of the wrong input width": {func(e *Estimator, c *Classifier) {
			e.Net = &ml.Network{Layers: []*ml.Dense{{W: ml.NewMatrix(NumFeatures+1, 96), B: ml.NewMatrix(1, 96)}}}
		}, "takes"},
		"classifier scaler narrower than the classifier": {func(e *Estimator, c *Classifier) { c.Scaler = narrow(c.Scaler) }, "classifier"},
		"classifier and scaler both narrower than the features": {func(e *Estimator, c *Classifier) {
			c.Scaler = narrow(c.Scaler)
			c.LR = &ml.LogisticRegression{W: c.LR.W[1:], B: c.LR.B}
		}, "classifier"},
	} {
		est, clf := *m.Estimator, *m.Classifier
		tc.edit(&est, &clf)
		odd := &Model{Estimator: &est, Classifier: &clf, Mode: m.Mode, MaxBuckets: m.MaxBuckets, protocol: m.protocol}
		var b bytes.Buffer
		if err := WriteModelSet(&b, SingleModelSet(odd)); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadModelSet(bytes.NewReader(b.Bytes())); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
	}

	est := *m.Estimator
	est.Net = &ml.Network{}
	empty := &Model{Estimator: &est, Classifier: m.Classifier, Mode: m.Mode, MaxBuckets: m.MaxBuckets, protocol: m.protocol}
	if err := WriteModelSet(io.Discard, SingleModelSet(empty)); err == nil {
		t.Error("a model whose network has no layers was written")
	}
}

func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadModelSet: whatever the bytes, the SRH3 reader does not panic,
// allocates in proportion to the input — not to the counts and widths
// its headers claim —, and reads back what WriteModelSet makes of any
// set it returns, to the same encoding. The seed corpus is in
// testdata/fuzz/FuzzReadModelSet; its valid seeds are a tiny trained
// 2-slice set (a 33-2-8 estimator, 2 bands × 4 buckets).
func FuzzReadModelSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var set *ModelSet
		var err error
		alloc := bytesAllocated(func() { set, err = ReadModelSet(bytes.NewReader(data)) })
		if !israce.Enabled && alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if set != nil {
				t.Fatalf("a set beside the error %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := WriteModelSet(&first, set); err != nil {
			t.Fatal(err)
		}
		back, err := ReadModelSet(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written set: %v", err)
		}
		if err := WriteModelSet(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("write→read→write changed the encoding")
		}
	})
}

// TestModelSetPersistV2RoundTrip: a multi-slice set survives the SRH3
// write/read cycle with every slice reproducing its original
// distributions.
func TestModelSetPersistV2RoundTrip(t *testing.T) {
	e := getEnv(t)
	set := ms2(t)
	var buf bytes.Buffer
	if err := WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("SRH3")) {
		t.Fatal("multi-slice set must use the SRH3 format")
	}
	got, err := ReadModelSet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != 2 {
		t.Fatalf("round trip K = %d, want 2", got.K())
	}
	want, _ := set.Recipe()
	if recipe, err := got.Recipe(); err != nil || recipe.Slices != 2 || !reflect.DeepEqual(recipe, want) {
		t.Errorf("set recipe read back as %+v, want %+v with 2 slices", recipe, want)
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

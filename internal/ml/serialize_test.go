package ml

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"stochroute/internal/israce"
	"stochroute/internal/rng"
)

func TestNetworkRoundTrip(t *testing.T) {
	r := rng.New(1)
	net, err := NewMLP([]int{4, 8, 5, 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	got, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Layers) != len(net.Layers) {
		t.Fatalf("layer count %d != %d", len(got.Layers), len(net.Layers))
	}
	// Same forward output on the same input.
	x := NewMatrix(2, 4)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	a := net.Infer(x)
	b := got.Infer(x)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("forward output differs at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestNetworkReadErrors(t *testing.T) {
	if _, err := ReadNetwork(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
	if _, err := ReadNetwork(bytes.NewReader([]byte("XXXXxxxx"))); err == nil {
		t.Error("bad magic should error")
	}
	var buf bytes.Buffer
	net := &Network{Layers: []*Dense{NewDense(2, 2, rng.New(1))}}
	if err := WriteNetwork(&buf, net); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ReadNetwork(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Error("truncated weights should error")
	}
	if err := WriteNetwork(new(bytes.Buffer), &Network{}); err == nil {
		t.Error("a network without layers was written")
	}

	// The reader accepts dense layers with a relu between each two and
	// nothing else, and the writer writes that sequence back byte for
	// byte.
	dense := "\x00\x01\x00\x00\x00\x01\x00\x00\x00" + strings.Repeat("\x00", 16) // 1×1
	// A 2×3 dense layer, a relu, then a 5×1 one: 3 outputs feed 5 inputs.
	unchained := "SRML\x03\x00\x00\x00" +
		"\x00\x02\x00\x00\x00\x03\x00\x00\x00" + strings.Repeat("\x00", 8*(2*3+3)) + "\x01" +
		"\x00\x05\x00\x00\x00\x01\x00\x00\x00" + strings.Repeat("\x00", 8*(5*1+1))
	mlp := "SRML\x03\x00\x00\x00" + dense + "\x01" + dense
	two, err := ReadNetwork(strings.NewReader(mlp))
	if err != nil {
		t.Fatalf("dense, relu, dense: %v", err)
	}
	var back bytes.Buffer
	if err := WriteNetwork(&back, two); err != nil || back.String() != mlp {
		t.Fatalf("dense, relu, dense written back as %q (%v)", back.String(), err)
	}
	for name, data := range map[string]string{
		"a tanh layer":              "SRML\x03\x00\x00\x00" + dense + "\x02" + dense,
		"a leading relu":            "SRML\x03\x00\x00\x00\x01" + dense + "\x01",
		"two dense layers in a row": "SRML\x03\x00\x00\x00" + dense + dense + dense,
		"an even layer count":       "SRML\x02\x00\x00\x00" + dense + "\x01",
		"layers that do not chain":  unchained,
	} {
		if _, err := ReadNetwork(strings.NewReader(data)); err == nil {
			t.Errorf("%s was read", name)
		}
	}
}

// TestNetworkReadForgedHeader: a 17-byte file claiming one 2²⁰ × 2²⁰
// dense layer is refused, and one claiming a layer within the bound
// fails on the missing weights; neither reserves room for them.
func TestNetworkReadForgedHeader(t *testing.T) {
	for _, forged := range []string{
		"SRML\x01\x00\x00\x00\x00\x00\x00\x10\x00\x00\x00\x10\x00", // 2²⁰ × 2²⁰
		"SRML\x01\x00\x00\x00\x00\x00\x10\x00\x00\x00\x10\x00\x00", // 2¹² × 2¹²
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadNetwork(bytes.NewReader([]byte(forged)))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("the forged header %q decoded", forged)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("the %d-byte forged header %q allocated %d bytes", len(forged), forged, alloc)
		}
	}
}

// bytesAllocated returns the heap bytes f allocates.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadNetwork: whatever the bytes, the SRML reader does not panic,
// allocates in proportion to the input — not to the dimensions its
// headers claim —, and reads back what WriteNetwork makes of any network
// it returns, to the same encoding. The seed corpus is in
// testdata/fuzz/FuzzReadNetwork; the reader refuses every seed but
// valid — activations, layers of unknown kind, a trailing tanh — as it
// refuses any sequence other than dense layers with a relu between each
// two.
func FuzzReadNetwork(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var net *Network
		var err error
		alloc := bytesAllocated(func() { net, err = ReadNetwork(bytes.NewReader(data)) })
		if !israce.Enabled && alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if net != nil {
				t.Fatalf("a network beside the error %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if err := WriteNetwork(&first, net); err != nil {
			t.Fatal(err)
		}
		back, err := ReadNetwork(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written network: %v", err)
		}
		if err := WriteNetwork(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write changed the encoding: %x → %x", first.Bytes(), second.Bytes())
		}
	})
}

func TestScalerRoundTrip(t *testing.T) {
	s := &StandardScaler{Mean: []float64{1, 2, 3}, Std: []float64{0.5, 1, 2}}
	var buf bytes.Buffer
	if err := WriteScaler(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScaler(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.Mean {
		if got.Mean[i] != s.Mean[i] || got.Std[i] != s.Std[i] {
			t.Fatalf("scaler differs at %d", i)
		}
	}
}

func TestLogRegRoundTrip(t *testing.T) {
	m := &LogisticRegression{W: []float64{0.5, -1.5}, B: 0.25}
	var buf bytes.Buffer
	if err := WriteLogReg(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLogReg(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.B != m.B || got.W[0] != m.W[0] || got.W[1] != m.W[1] {
		t.Fatalf("logreg differs: %+v vs %+v", got, m)
	}
}

package graph

import (
	"bytes"
	"runtime"
	"slices"
	"testing"

	"stochroute/internal/israce"
)

func TestGraphCodecRoundTrip(t *testing.T) {
	g, _ := buildDiamond(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("size mismatch: %d/%d vs %d/%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		if got.Point(VertexID(v)) != g.Point(VertexID(v)) {
			t.Errorf("vertex %d point mismatch", v)
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		a, b := got.Edge(EdgeID(e)), g.Edge(EdgeID(e))
		if a != b {
			t.Errorf("edge %d mismatch: %+v vs %+v", e, a, b)
		}
	}
	// CSR must be rebuilt identically.
	for v := 0; v < g.NumVertices(); v++ {
		if got.OutDegree(VertexID(v)) != g.OutDegree(VertexID(v)) {
			t.Errorf("vertex %d out-degree mismatch", v)
		}
	}
}

func TestGraphReadErrors(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should error")
	}
	if _, err := Read(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Error("bad magic should error")
	}
	g, _ := buildDiamond(t)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := Read(bytes.NewReader(data[:len(data)-4])); err == nil {
		t.Error("truncated input should error")
	}
}

// TestGraphReadForgedHeader: a 12-byte header claiming 2²⁸ vertices and
// edges fails on the missing bytes without reserving room for them.
func TestGraphReadForgedHeader(t *testing.T) {
	forged := []byte("SRG1\x00\x00\x00\x10\x00\x00\x00\x10")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a forged header decoded")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Errorf("a %d-byte forged header allocated %d bytes", len(forged), alloc)
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

// FuzzReadGraph: whatever the bytes, the SRG reader does not panic,
// allocates in proportion to the input — not to the counts its header
// claims —, and reads back what WriteTo makes of any graph it returns:
// the same encoding, the same adjacency. The seed corpus is in
// testdata/fuzz/FuzzReadGraph.
func FuzzReadGraph(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var g *Graph
		var err error
		alloc := bytesAllocated(func() { g, err = Read(bytes.NewReader(data)) })
		if !israce.Enabled && alloc > 64*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			if g != nil {
				t.Fatalf("a graph beside the error %v", err)
			}
			return
		}
		var first, second bytes.Buffer
		if _, err := g.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reading back a written graph: %v", err)
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("write→read→write changed the encoding: %x → %x", first.Bytes(), second.Bytes())
		}
		for v := range VertexID(g.NumVertices()) {
			if !slices.Equal(g.Out(v), back.Out(v)) || !slices.Equal(g.In(v), back.In(v)) {
				t.Fatalf("vertex %d: adjacency %v / %v read back as %v / %v", v, g.Out(v), g.In(v), back.Out(v), back.In(v))
			}
		}
	})
}

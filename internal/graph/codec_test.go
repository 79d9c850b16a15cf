package graph

import (
	"bytes"
	"runtime"
	"testing"
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

package httpsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"testing/iotest"

	"stochroute/internal/israce"
)

// TestReadBodyGrowsAsBytesArrive: ReadBody reads a body whole whatever
// length it declares, if any, and reads of any size; and what it
// allocates is bounded by the bytes that arrive, not by a declared
// Content-Length, so a client that declares the cap and sends a few
// bytes costs one chunk.
func TestReadBodyGrowsAsBytesArrive(t *testing.T) {
	const maxBytes = 8 << 20
	for _, tc := range []struct {
		sent, declared int64 // declared -1: no Content-Length
	}{
		{5, maxBytes - 8},
		{5, 5},
		{5, -1},
		{bodyChunk, bodyChunk},
		{bodyChunk + 1, maxBytes},
		{200 << 10, maxBytes},
		{200 << 10, 200 << 10},
		{200 << 10, -1},
		{maxBytes, maxBytes},
	} {
		body := bytes.Repeat([]byte("7"), int(tc.sent))
		r := httptest.NewRequest(http.MethodPost, "/ingest", nil)
		read := func() ([]byte, error) {
			r.Body = io.NopCloser(iotest.HalfReader(bytes.NewReader(body)))
			r.ContentLength = tc.declared
			return ReadBody(r, maxBytes)
		}
		got, err := read()
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("sent %d, declared %d: read %d bytes, err %v", tc.sent, tc.declared, len(got), err)
			continue
		}
		if israce.Enabled {
			continue
		}
		// The buffer doubles from one chunk and only once it is full,
		// so the last one is under twice the body and all of them under
		// twice the last; the slack is the heap's rounding to pages.
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			read()
		}
		runtime.ReadMemStats(&after)
		perRead := int64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := bodyChunk + 4*tc.sent + 16<<10; perRead > limit {
			t.Errorf("sent %d, declared %d: allocated %d bytes a read, want <= %d", tc.sent, tc.declared, perRead, limit)
		}
	}
	for _, tc := range []struct {
		sent, declared int64
	}{
		{maxBytes + 1, -1},
		{maxBytes + 1, maxBytes + 1},
		{5, maxBytes + 1},
	} {
		r := httptest.NewRequest(http.MethodPost, "/ingest", nil)
		r.Body = io.NopCloser(bytes.NewReader(make([]byte, tc.sent)))
		r.ContentLength = tc.declared
		var e *Error
		if _, err := ReadBody(r, maxBytes); !errors.As(err, &e) || e.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("sent %d, declared %d: %v, want 413", tc.sent, tc.declared, err)
		}
	}
}

// TestAppendFloatMatchesEncodingJSON: AppendFloat spells every finite
// float64 as json.Marshal does, at the format's switch points, at both
// signs and at random bit patterns.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	fs := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 1e-6, 9.99e-7, 1e-7, 1e20, 1e21, 123456789e13,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 1e-10, 2.5e-8, 33.333333333333336}
	for bits := uint64(0x9e3779b97f4a7c15); len(fs) < 2000; bits = bits*6364136223846793005 + 1442695040888963407 {
		if f := math.Float64frombits(bits); !math.IsNaN(f) && !math.IsInf(f, 0) {
			fs = append(fs, f, -f)
		}
	}
	for _, f := range fs {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendFloat(%v) = %s, json.Marshal %s", f, got, want)
		}
	}
}

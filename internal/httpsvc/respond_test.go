package httpsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"stochroute/internal/israce"
)

// fuzzBody has the shapes DecodeJSON is fuzzed on: the batch's queries,
// the body it serves, and nested number arrays like an ingest trip's.
type fuzzBody struct {
	Queries []struct {
		Source int     `json:"source"`
		Dest   int     `json:"dest"`
		Budget float64 `json:"budget_s"`
		Ok     bool    `json:"time_expanded"`
	} `json:"queries"`
	Trajectories []struct {
		Edges []int32   `json:"edges"`
		Times []float64 `json:"times"`
	} `json:"trajectories"`
	Name string `json:"name"`
}

func decodeBody(body []byte, maxBytes int64) (*fuzzBody, error) {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	var v fuzzBody
	err := DecodeJSON(httptest.NewRecorder(), r, maxBytes, &v)
	return &v, err
}

func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeJSON: whatever the body and the cap, DecodeJSON does not
// panic, allocates in proportion to the body, fails with a 400 or a 413
// (the latter only past the cap), decodes no body longer than the cap,
// and decodes the encoding of what it accepts to the same value.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []struct {
		body string
		cap  uint16
	}{
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}`, 1024},
		{`{"trajectories":[{"edges":[0,1],"times":[5,6.5]}]}`, 1024},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}` + strings.Repeat(" ", 64), 60},
		{`{"name":"a"}]`, 64},
		{`{"name":"a"} {"name":"b"}`, 64},
		{`{"nope":1}`, 64},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9},{"source":1,"dest":2,"budget_s":9}]}`, 40},
		{``, 8},
		{`[1,2,3]`, 8},
	} {
		f.Add([]byte(seed.body), seed.cap)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		maxBytes := int64(limit) + 1
		var v *fuzzBody
		var err error
		alloc := bytesAllocated(func() { v, err = decodeBody(body, maxBytes) })
		if !israce.Enabled && alloc > 64*uint64(len(body))+64<<10 {
			t.Fatalf("%d body bytes allocated %d bytes", len(body), alloc)
		}
		if err != nil {
			var e *Error
			switch {
			case !errors.As(err, &e):
				t.Fatalf("error %v is not an *Error", err)
			case e.Code == http.StatusRequestEntityTooLarge && int64(len(body)) <= maxBytes:
				t.Fatalf("413 for a %d-byte body under a %d-byte cap", len(body), maxBytes)
			case e.Code != http.StatusRequestEntityTooLarge && e.Code != http.StatusBadRequest:
				t.Fatalf("status %d", e.Code)
			}
			return
		}
		if int64(len(body)) > maxBytes {
			t.Fatalf("a %d-byte body decoded under a %d-byte cap", len(body), maxBytes)
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBody(enc, int64(len(enc)))
		if err != nil {
			t.Fatalf("decoding the encoding %s: %v", enc, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Fatalf("decode→encode→decode changed the value: %+v → %+v", v, back)
		}
	})
}

// TestDecodeJSONEndsAtTheBody: only whitespace may follow the value, and
// a body past the cap is a 413 even when its value ends inside it.
func TestDecodeJSONEndsAtTheBody(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int // 0 = accepted
	}{
		{`{"name":"a"}`, 0},
		{"{\"name\":\"a\"} \n\t", 0},
		{`{"name":"a"}]`, http.StatusBadRequest},
		{`{"name":"a"}}`, http.StatusBadRequest},
		{`{"name":"a"} {}`, http.StatusBadRequest},
		{`{"name":"a"}x`, http.StatusBadRequest},
		{`{"name":"a"}` + strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge},
		{`{"name":"` + strings.Repeat("a", 64) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		_, err := decodeBody([]byte(tc.body), 32)
		var e *Error
		switch {
		case tc.want == 0 && err != nil:
			t.Errorf("%q: %v, want accepted", tc.body, err)
		case tc.want != 0 && (!errors.As(err, &e) || e.Code != tc.want):
			t.Errorf("%q: %v, want status %d", tc.body, err, tc.want)
		}
	}
}

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

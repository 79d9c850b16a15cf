package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/httpsvc"
	"stochroute/internal/israce"
	"stochroute/internal/routing"
)

// batchRequest is the /route/batch body as encoding/json decoded it
// before the walk replaced that decode: the oracle the walk is held to.
type batchRequest struct {
	Queries []batchQueryRequest `json:"queries"`
}

// decodeBatch is the oracle: a body past maxBytes is a 413; otherwise a
// json.Decoder with DisallowUnknownFields into batchRequest, followed
// by nothing but whitespace, or a 400.
func decodeBatch(body []byte, maxBytes int64) ([]batchQueryRequest, int) {
	if int64(len(body)) > maxBytes {
		return nil, http.StatusRequestEntityTooLarge
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req batchRequest
	if err := dec.Decode(&req); err != nil {
		return nil, http.StatusBadRequest
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, http.StatusBadRequest
	}
	return req.Queries, 0
}

// FuzzScanRouteBatch holds the replica's /route/batch read to
// encoding/json on arbitrary bytes and caps: readBatch answers 413
// exactly to a body past the cap, whether or not the body declares its
// length, and otherwise accepts exactly the bodies decodeBatch accepts,
// with queries reflect.DeepEqual to the oracle's — nil and empty told
// apart, repeated keys and arrays and nulls included. Every refusal is
// an *httpsvc.Error, and what the read allocates is in proportion to
// the body.
func FuzzScanRouteBatch(f *testing.F) {
	for _, seed := range []struct {
		body string
		cap  uint16 // the cap is cap+1 bytes
	}{
		// The JSON body parser's seeds, from when the batch was decoded
		// by encoding/json.
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}`, 1024},
		{`{"trajectories":[{"edges":[0,1],"times":[5,6.5]}]}`, 1024},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}` + strings.Repeat(" ", 64), 60},
		{`{"name":"a"}]`, 64},
		{`{"name":"a"} {"name":"b"}`, 64},
		{`{"nope":1}`, 64},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9},{"source":1,"dest":2,"budget_s":9}]}`, 40},
		{``, 8},
		{`[1,2,3]`, 8},
		// Only whitespace may follow the value, and a body past the cap
		// is a 413 even when its value ends inside it: in the shape of
		// an unknown field, then of a batch.
		{`{"name":"a"}`, 31},
		{"{\"name\":\"a\"} \n\t", 31},
		{`{"name":"a"}]`, 31},
		{`{"name":"a"}}`, 31},
		{`{"name":"a"} {}`, 31},
		{`{"name":"a"}x`, 31},
		{`{"name":"a"}` + strings.Repeat(" ", 64), 31},
		{`{"name":"` + strings.Repeat("a", 64) + `"}`, 31},
		{`{"queries":[]}`, 31},
		{"{\"queries\":[]} \n\t", 31},
		{`{"queries":[]}]`, 31},
		{`{"queries":[]}}`, 31},
		{`{"queries":[]} {}`, 31},
		{`{"queries":[]}x`, 31},
		{`{"queries":[]}` + strings.Repeat(" ", 64), 31},
		{`{"queries":[{"source":` + strings.Repeat("1", 64) + `}]}`, 31},
		// The walk's own rules.
		{`{"queries":[{"source":1,"dest":2,"budget_s":9.5,"depart_s":28800,"time_expanded":true}]}`, 1024},
		{`{"QUERIES":[{"Source":1,"DEST":2,"Budget_S":9,"dEpArT_s":-0,"Time_Expanded":false}]}`, 1024},
		{`{"queries":[{"sourceſ":1}]}`, 1024},
		{`{"queries":[{"source":4,"dest":"2"}]}`, 1024},
		{`{"queries":[{"source":1,"source":null,"source":3}]}`, 1024},
		{`{"queries":[{"source":1,"dest":2},{"source":3}],"queries":[{"dest":5}],"queries":[null,null]}`, 1024},
		{`{"queries":[{"source":1}],"queries":[],"queries":[null]}`, 1024},
		{`{"queries":[null,{"budget_s":null,"time_expanded":null}]}`, 1024},
		{`{"queries":null}`, 1024},
		{`{"queries":{"source":1}}`, 1024},
		{`{"queries":[[1,2]]}`, 1024},
		{`{"queries":[{"source":1.0}]}`, 1024},
		{`{"queries":[{"source":1e2}]}`, 1024},
		{`{"queries":[{"source":9223372036854775807,"dest":-9223372036854775808}]}`, 1024},
		{`{"queries":[{"source":9223372036854775808}]}`, 1024},
		{`{"queries":[{"budget_s":1e400}]}`, 1024},
		{`{"queries":[{"budget_s":1e-400,"depart_s":123456789012345678901234567890}]}`, 1024},
		{`{"queries":[{"time_expanded":1}]}`, 1024},
		{`{"queries":[{"time_expanded":"true"}]}`, 1024},
		{`{"queries":[{"depart_s":{"x":[1,"}"]}}]}`, 1024},
		{` { "queries" : [ { "source" : 1 , "dest" : 2 } ] } `, 1024},
		{`null`, 1024},
		{`"queries"`, 1024},
	} {
		f.Add([]byte(seed.body), seed.cap)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		maxBytes := int64(limit) + 1
		r := httptest.NewRequest(http.MethodPost, "/route/batch", bytes.NewReader(body))
		if len(body)%2 == 1 {
			r.ContentLength = -1 // read to the end, not refused by its declared length
		}
		var got []batchQueryRequest
		var err error
		alloc := bytesAllocated(func() { got, err = readBatch(r, maxBytes) })
		if !israce.Enabled && alloc > 64*uint64(len(body))+64<<10 {
			t.Fatalf("%d body bytes allocated %d bytes", len(body), alloc)
		}
		want, wantStatus := decodeBatch(body, maxBytes)
		status := 0
		if err != nil {
			var e *httpsvc.Error
			if !errors.As(err, &e) {
				t.Fatalf("body %q: error %v is not an *httpsvc.Error", body, err)
			}
			status = e.Code
		}
		if status != wantStatus {
			t.Fatalf("body %q under a %d-byte cap: status %d (%v), encoding/json's %d", body, maxBytes, status, err, wantStatus)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("body %q: walk %#v, encoding/json %#v", body, got, want)
		}
	})
}

// TestScanRouteBatchEndsAtTheBody: only whitespace may follow the
// batch, and a body past the cap is a 413 even when its value ends
// inside it, whether or not the body declares its length.
func TestScanRouteBatchEndsAtTheBody(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int // 0 = accepted
	}{
		{`{"queries":[]}`, 0},
		{"{\"queries\":[]} \n\t", 0},
		{`{"queries":[]}]`, http.StatusBadRequest},
		{`{"queries":[]}}`, http.StatusBadRequest},
		{`{"queries":[]} {}`, http.StatusBadRequest},
		{`{"queries":[]}x`, http.StatusBadRequest},
		{`{"queries":[]}` + strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge},
		{`{"queries":[{"source":` + strings.Repeat("1", 64) + `}]}`, http.StatusRequestEntityTooLarge},
	} {
		for _, declared := range []bool{true, false} {
			r := httptest.NewRequest(http.MethodPost, "/route/batch", strings.NewReader(tc.body))
			if !declared {
				r.ContentLength = -1
			}
			_, err := readBatch(r, 32)
			var e *httpsvc.Error
			switch {
			case tc.want == 0 && err != nil:
				t.Errorf("%q (declared %v): %v, want accepted", tc.body, declared, err)
			case tc.want != 0 && (!errors.As(err, &e) || e.Code != tc.want):
				t.Errorf("%q (declared %v): %v, want status %d", tc.body, declared, err, tc.want)
			}
		}
	}
}

// cannedBackend answers every batch item with one prebuilt result into
// one reused item slice, so what a batch allocates is the handler's.
type cannedBackend struct {
	*fakeBackend
	res   routing.Result
	items []routing.BatchItem
}

func (b *cannedBackend) RouteBatch(_ context.Context, queries []routing.BatchQuery, _ int) []routing.BatchItem {
	items := b.items[:len(queries)]
	for i := range items {
		items[i] = routing.BatchItem{Result: &b.res, Epoch: 1, Elapsed: time.Microsecond}
	}
	return items
}

// statusWriter is a headerOnlyWriter that keeps the last status other
// than 200.
type statusWriter struct {
	headerOnlyWriter
	failed int
}

func (w *statusWriter) WriteHeader(code int) {
	if code != http.StatusOK {
		w.failed = code
	}
}

// TestRouteBatchAllocs is the allocation gate of a replica's
// /route/batch handler: time-expanded items (the cache is bypassed both
// ways) over a backend whose answers cost nothing, at 16 and 64 items,
// from mux dispatch to the last body byte. The body is read into a
// pooled buffer and walked once into one query slice, the miss list
// and its positions are sized once, and the answer is appended into a
// pooled buffer, so a batch costs 4 allocations whatever its size: the
// queries, the answers, the misses and their positions; the walk's
// cursor stays on the stack. The count per added item must stay under
// 1/16. When encoding/json decoded the body and the miss list
// grew by appends, the same test read 30 at 16 items and 38 at 64.
func TestRouteBatchAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	fb := newFakeBackendSlices(t, 4)
	path := []graph.EdgeID{3, 4, 5}
	b := &cannedBackend{fakeBackend: fb, items: make([]routing.BatchItem, 64), res: routing.Result{
		Path: path, SliceSeq: []int{1, 1, 2}, Dist: hist.Uniform(50, 5, 4),
		Prob: 0.75, Found: true, Complete: true, Slice: 1, ModelEpoch: 1,
	}}
	h := New(b, Config{}).Handler()
	measure := func(n int) float64 {
		var items []string
		for i := 0; i < n; i++ {
			items = append(items, fmt.Sprintf(`{"source":%d,"dest":%d,"budget_s":%d,"depart_s":%d,"time_expanded":true}`, i%30, (i+7)%30, 90+i, 25000+100*i))
		}
		body := []byte(`{"queries":[` + strings.Join(items, ",") + `]}`)
		rec, out := postBatch(t, h, string(body))
		if rec.Code != http.StatusOK || len(out.Results) != n || out.CacheHits != 0 {
			t.Fatalf("%d items: status %d, body %.200s", n, rec.Code, rec.Body.Bytes())
		}
		for i, it := range out.Results {
			if it.Source != i%30 || !it.TimeExpanded || it.Prob != 0.75 || len(it.SliceSeq) != 3 {
				t.Fatalf("%d items: result %d is %+v", n, i, it)
			}
		}

		var rd bytes.Reader
		rc := io.NopCloser(&rd)
		req := httptest.NewRequest(http.MethodPost, "/route/batch", nil)
		req.ContentLength = int64(len(body))
		w := &statusWriter{headerOnlyWriter: headerOnlyWriter{h: make(http.Header)}}
		allocs := testing.AllocsPerRun(300, func() {
			rd.Reset(body)
			req.Body = rc
			h.ServeHTTP(w, req)
		})
		if w.failed != 0 || w.bytes == 0 {
			t.Fatalf("%d items: status %d, %d body bytes, want 200 and an answer", n, w.failed, w.bytes)
		}
		t.Logf("%d items: %.1f allocations per request", n, allocs)
		return allocs
	}
	small, large := measure(16), measure(64)
	if small > 6 {
		t.Errorf("a 16-item /route/batch costs %.1f allocations on the replica, want <= 6", small)
	}
	if slope := (large - small) / (64 - 16); slope > 1.0/16 {
		t.Errorf("/route/batch costs %.3f allocations per added item on the replica (%.1f at 16 items, %.1f at 64), want <= 1/16", slope, small, large)
	}
}

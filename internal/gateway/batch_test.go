package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"stochroute/internal/israce"
)

func newTestRequest(t *testing.T, path, query string) *http.Request {
	t.Helper()
	return httptest.NewRequest(http.MethodGet, path+"?"+query, nil)
}

// TestAttributeReplica: the splice adds exactly one field and leaves
// every original byte in place — the mechanism behind the gateway's
// bit-identity guarantee for batch results.
func TestAttributeReplica(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{`{"found":true,"prob":0.75}`, `{"replica":"r1","found":true,"prob":0.75}`},
		{`{}`, `{"replica":"r1"}`},
		{` {"a":1}`, ` {"replica":"r1","a":1}`},
		{`null`, `null`}, // non-object passes through untouched
	}
	for _, c := range cases {
		got := appendAttributed(nil, []byte(c.in), []byte(`"r1"`))
		if string(got) != c.want {
			t.Errorf("appendAttributed(%q) = %q, want %q", c.in, got, c.want)
		}
		if !json.Valid(got) && json.Valid([]byte(c.in)) {
			t.Errorf("appendAttributed(%q) produced invalid JSON %q", c.in, got)
		}
	}
	// Byte preservation: stripping the injected prefix restores the
	// original exactly.
	orig := `{"found":true,"path":[3,1,4],"prob":0.875,"model_epoch":2}`
	got := appendAttributed(nil, []byte(orig), []byte(`"replica-2"`))
	restored := bytes.Replace(got, []byte(`"replica":"replica-2",`), nil, 1)
	if string(restored) != orig {
		t.Errorf("attribution rewrote replica bytes: %q -> %q", orig, got)
	}
}

// TestRemapQueryIndices: replica-local validation indices translate to
// the client's original batch positions, so a scattered batch fails
// with the same error a single replica would have produced.
func TestRemapQueryIndices(t *testing.T) {
	orig := []int{4, 17, 31}
	cases := []struct {
		in, want string
	}{
		{"queries[0].source: vertex -1 out of range", "queries[4].source: vertex -1 out of range"},
		{"queries[2].budget_s: must be positive", "queries[31].budget_s: must be positive"},
		{"queries[9].dest: whatever", "queries[9].dest: whatever"}, // out of range: untouched
		{"no index here", "no index here"},
	}
	for _, c := range cases {
		if got := remapQueryIndices(c.in, orig); got != c.want {
			t.Errorf("remapQueryIndices(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// TestParseRoutingKey: equivalent requests key identically and
// malformed ones are rejected at the gateway edge.
func TestRoutingKeyShapes(t *testing.T) {
	mk := func(path, query string) uint64 {
		t.Helper()
		r := newTestRequest(t, path, query)
		k, err := routingKey(r)
		if err != nil {
			t.Fatalf("routingKey(%s?%s): %v", path, query, err)
		}
		return k
	}
	if mk("/route", "source=3&dest=9&budget=100") != mk("/route/anytime", "source=3&dest=9&budget=50&limit_ms=20") {
		t.Error("same (source, dest) pair keyed differently across route endpoints")
	}
	if mk("/route", "source=3&dest=9") == mk("/route", "source=9&dest=3") {
		t.Error("reversed pair should key differently")
	}
	if mk("/route", "source=3&dest=9") != KeyForPair(3, 9) {
		t.Error("HTTP routing key disagrees with KeyForPair — batch items and single queries would land on different replicas")
	}
	r := newTestRequest(t, "/route", "source=3")
	if _, err := routingKey(r); err == nil {
		t.Error("missing dest accepted")
	}
	r = newTestRequest(t, "/pairsum", "first=e1")
	if _, err := routingKey(r); err == nil {
		t.Error("missing second edge accepted")
	}
}

// cannedBatch answers every sub-batch sent to the "stub" scheme with
// answer, after reading the request body as a replica would; like
// stubFleet it allocates nothing itself.
type cannedBatch struct {
	stubFleet
	answer []byte
}

func (c *cannedBatch) RoundTrip(req *http.Request) (*http.Response, error) {
	_, _ = io.Copy(io.Discard, req.Body)
	req.Body.Close()
	c.body.Reset(c.answer)
	c.resp.Body = &c.body
	return &c.resp, nil
}

// batchBody is a client batch of n distinct queries, and cannedAnswer
// a replica's answer to it.
func batchBody(n int) []byte {
	b := []byte(`{"queries":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"source":%d,"dest":%d,"budget_s":120.5}`, i, i+1)
	}
	return append(b, "]}"...)
}

func cannedAnswer(n int) []byte {
	b := []byte(`{"results":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"source":%d,"dest":%d,"budget_s":120.5,"found":true,"complete":true,"prob":0.75,"path":[3,1,4,1,5],"model_epoch":1,"runtime_ms":0,"cached":false}`, i, i+1)
	}
	return append(b, `],"cache_hits":0,"runtime_ms":1.5}`+"\n"...)
}

// TestGatewayBatchAllocs is the allocation gate of /route/batch on the
// gateway's side of RoundTrip: the handler runs in-process against one
// replica that answers canned bytes, at 16 and 64 items, and the count
// per added item must stay at most 1. The client's body, the replica's
// answer and the gateway's answer live in pooled buffers and each item
// is spans of them, so only the items slice grows with the batch, by
// doubling (5 allocations at 16 items, 7 at 64). The rest, 22 a
// request whatever its size: the deadline context and its timer (5);
// the scatter's count, group and position slices, the pending list and
// the fork-join's closure (5); the sub-batch body, its reader, its
// io.NopCloser and GetBody (4); the outbound Request, URL and header
// map (3); the transport's rewind wrapper (2); the chassis's request ID
// and wrapper (2); and this test's one. Measured: 27 at 16 items, 30
// at 64. Before the batch was walked in place (a RawMessage and a
// decode per item, a re-encoded sub-batch and a re-compacted answer)
// the same test read 198 and 595, 8.3 per item.
func TestGatewayBatchAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: "stub://r1"}}})
	if err != nil {
		t.Fatal(err)
	}
	stub := &cannedBatch{stubFleet: stubFleet{resp: http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
	}}}
	gw.transport.RegisterProtocol("stub", stub)
	h := gw.Handler()

	measure := func(n int) float64 {
		body := batchBody(n)
		stub.answer = cannedAnswer(n)
		// One answer is checked in full: the canned results, attributed.
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/route/batch", bytes.NewReader(body)))
		var got struct {
			Results []struct {
				Replica string `json:"replica"`
				Source  int    `json:"source"`
			} `json:"results"`
		}
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil || len(got.Results) != n {
			t.Fatalf("%d items: status %d, body %.200s", n, rec.Code, rec.Body.Bytes())
		}
		for i, r := range got.Results {
			if r.Replica != "r1" || r.Source != i {
				t.Fatalf("%d items: result %d is %+v", n, i, r)
			}
		}

		var rd bytes.Reader
		req := httptest.NewRequest(http.MethodPost, "/route/batch", nil)
		req.Body = io.NopCloser(&rd)
		w := &discardWriter{h: make(http.Header)}
		allocs := testing.AllocsPerRun(300, func() {
			rd.Reset(body)
			h.ServeHTTP(w, req)
		})
		if w.status != http.StatusOK {
			t.Fatalf("%d items: status %d", n, w.status)
		}
		t.Logf("%d items: %.1f allocations per request", n, allocs)
		return allocs
	}
	small, large := measure(16), measure(64)
	if slope := (large - small) / (64 - 16); slope > 1 {
		t.Errorf("/route/batch costs %.2f allocations per added item on the gateway (%.1f at 16 items, %.1f at 64), want <= 1", slope, small, large)
	}
}

// TestBatchForwardsRequestIdentity: a sub-batch carries the client's
// identity headers, as a proxied GET does, so a batch's X-Request-Id
// reaches the replica's logs and its /debug/traces?request_id=.
func TestBatchForwardsRequestIdentity(t *testing.T) {
	var seen atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","model_epoch":1,"replica":"r1"}`)
	})
	mux.HandleFunc("/route/batch", func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get("X-Request-Id") + "|" + r.Header.Get("Content-Type"))
		_, _ = io.Copy(io.Discard, r.Body)
		w.Write(cannedAnswer(2))
	})
	rep := httptest.NewServer(mux)
	defer rep.Close()
	_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}})

	req, err := http.NewRequest(http.MethodPost, base+"/route/batch", bytes.NewReader(batchBody(2)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "via-gateway")
	req.Header.Set("Content-Type", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got, _ := seen.Load().(string); got != "via-gateway|application/json" {
		t.Errorf("replica saw X-Request-Id|Content-Type %q, want %q", got, "via-gateway|application/json")
	}
}

// gwBatchQuery is the part of a batch item the gateway reads, as
// encoding/json would fill it: the oracle FuzzScanBatchRequest holds
// the scanner to.
type gwBatchQuery struct {
	Source int `json:"source"`
	Dest   int `json:"dest"`
}

// FuzzScanBatchRequest holds the in-place walks of /route/batch to
// encoding/json on arbitrary bytes. As a client's body: scanBatchRequest
// succeeds exactly when json.Unmarshal into {Queries []json.RawMessage}
// and then of each item into gwBatchQuery both do, and then the item
// count, every item's KeyForPair(source, dest) and every compacted span
// match. As a replica's answer: scanBatchAnswer succeeds exactly when
// json.Unmarshal into the answer's shape does, with the same result
// count, cache_hits and compacted result spans.
func FuzzScanBatchRequest(f *testing.F) {
	for _, seed := range []string{
		`{"queries":[{"source":1,"dest":2,"budget_s":60}]}`,
		`{"queries":[null,{"source":3,"dest":4}]}`,
		`{"queries":null}`,
		`null`,
		`{"queries":[]}`,
		`{"QUERIES":[{"Source":5,"DEST":6}]}`,
		`{"\u0071ueries":[{"sour\u0063e":7,"\u0064est":8}]}`,
		`{"queries":[{"source":1,"source":9,"dest":2,"dest":null}]}`,
		`{"queries":[{"source":1}],"queries":[{"dest":3}]}`,
		`{"queries":[[1]],"queries":[{"dest":3}]}`,
		`{"queries":[{"source":1.5,"dest":2}]}`,
		`{"queries":[{"source":1e2,"dest":2}]}`,
		`{"queries":[{"source":-0,"dest":-9223372036854775808}]}`,
		`{"queries":[{"source":9223372036854775808,"dest":1}]}`,
		`{"queries":[{"source":"1","dest":2}]}`,
		`{"queries":[{"source":1,"dest":2,"x":{"y":[1,"}]",{"z":null}]}}]}`,
		`{"queries":["str",1,true]}`,
		`{"queries":{"source":1}}`,
		` { "queries" : [ { "source" : 1 , "dest" : 2 } ] } `,
		`{"queries":[{"ſource":1,"dest":2}]}`,
		`{"results":[{"found":true},null],"cache_hits":2,"runtime_ms":1.5}`,
		`{"results":[{}],"cache_hits":1.0,"runtime_ms":"x"}`,
		`{"results":[{}],"runtime_ms":1e400}`,
		`{"queries":[{"source":1,"dest":2}]} x`,
		`[{"source":1}]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		items, err := scanBatchRequest(body)
		var req struct {
			Queries []json.RawMessage `json:"queries"`
		}
		want := json.Unmarshal(body, &req)
		qs := make([]gwBatchQuery, len(req.Queries))
		for i := 0; want == nil && i < len(qs); i++ {
			want = json.Unmarshal(req.Queries[i], &qs[i])
		}
		if (err == nil) != (want == nil) {
			t.Fatalf("body %q: scanner error %v, encoding/json error %v", body, err, want)
		}
		if err == nil {
			if len(items) != len(qs) {
				t.Fatalf("body %q: %d items, encoding/json %d", body, len(items), len(qs))
			}
			for i, q := range qs {
				if items[i].key != KeyForPair(q.Source, q.Dest) {
					t.Errorf("body %q: item %d keys differently from (%d, %d)", body, i, q.Source, q.Dest)
				}
				if a, b := compacted(t, items[i].query), compacted(t, req.Queries[i]); a != b {
					t.Errorf("body %q: item %d spans %q, encoding/json %q", body, i, a, b)
				}
			}
		}

		const max = 64
		orig := make([]int, max)
		for i := range orig {
			orig[i] = i
		}
		got := make([]batchItem, max)
		n, hits, err := scanBatchAnswer(body, orig, got)
		var ans struct {
			Results   []json.RawMessage `json:"results"`
			CacheHits int               `json:"cache_hits"`
			RuntimeMS float64           `json:"runtime_ms"`
		}
		want = json.Unmarshal(body, &ans)
		if (err == nil) != (want == nil) {
			t.Fatalf("answer %q: scanner error %v, encoding/json error %v", body, err, want)
		}
		if err != nil {
			return
		}
		if n != len(ans.Results) || hits != ans.CacheHits {
			t.Fatalf("answer %q: %d results and %d hits, encoding/json %d and %d", body, n, hits, len(ans.Results), ans.CacheHits)
		}
		for i := 0; i < n && i < max; i++ {
			if a, b := compacted(t, got[i].result), compacted(t, ans.Results[i]); a != b {
				t.Errorf("answer %q: result %d spans %q, encoding/json %q", body, i, a, b)
			}
		}
	})
}

func compacted(t *testing.T, v []byte) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, v); err != nil {
		t.Fatalf("span %q: %v", v, err)
	}
	return b.String()
}

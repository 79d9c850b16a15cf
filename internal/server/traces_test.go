package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochroute/internal/obs"
)

// debugTraces fetches and decodes /debug/traces with the given query
// string.
func debugTraces(t *testing.T, h http.Handler, query string) map[string]any {
	t.Helper()
	rec, body := get(t, h, "/debug/traces"+query)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces%s: status %d: %v", query, rec.Code, body)
	}
	return body
}

// tracesOf unpacks the traces array of a /debug/traces response.
func tracesOf(t *testing.T, body map[string]any) []map[string]any {
	t.Helper()
	raw, ok := body["traces"].([]any)
	if !ok {
		t.Fatalf("no traces array in %v", body)
	}
	out := make([]map[string]any, len(raw))
	for i, r := range raw {
		out[i] = r.(map[string]any)
	}
	return out
}

// childNames lists the names of a rendered span's children, in order.
func childNames(span map[string]any) []string {
	kids, _ := span["children"].([]any)
	names := make([]string, len(kids))
	for i, k := range kids {
		names[i] = k.(map[string]any)["name"].(string)
	}
	return names
}

func childByName(t *testing.T, span map[string]any, name string) map[string]any {
	t.Helper()
	kids, _ := span["children"].([]any)
	for _, k := range kids {
		m := k.(map[string]any)
		if m["name"] == name {
			return m
		}
	}
	t.Fatalf("span %v has no child %q (children: %v)", span["name"], name, childNames(span))
	return nil
}

// TestTracingEndToEnd drives the full acceptance path: a slow route
// request is sampled, appears in /debug/traces as a multi-span tree
// joined to its X-Request-ID and the echoed traceparent, and the
// latency histogram's OpenMetrics rendering exposes an exemplar trace
// ID that resolves in the store.
func TestTracingEndToEnd(t *testing.T) {
	fb := newFakeBackend(t)
	fb.searchDelay = 5 * time.Millisecond // over the 1ms slow threshold
	tracer := obs.NewTracer(obs.NewSpanStore(64, time.Millisecond), 1)
	s := New(fb, Config{Tracer: tracer})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	req.Header.Set("X-Request-ID", "trace-me")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("route status %d: %s", rec.Code, rec.Body.String())
	}

	// The response echoes the trace identity as a W3C traceparent.
	tp, ok := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
	if !ok || !tp.Sampled {
		t.Fatalf("response traceparent %q invalid or unsampled", rec.Header().Get("Traceparent"))
	}

	// The trace is findable by request ID and joined to the traceparent.
	body := debugTraces(t, h, "?request_id=trace-me")
	traces := tracesOf(t, body)
	if len(traces) != 1 {
		t.Fatalf("want 1 trace for request trace-me, got %d", len(traces))
	}
	tr := traces[0]
	if tr["trace_id"] != tp.TraceID {
		t.Errorf("trace_id %v != response traceparent %s", tr["trace_id"], tp.TraceID)
	}
	if tr["endpoint"] != "/route" {
		t.Errorf("endpoint = %v", tr["endpoint"])
	}
	if ms := tr["duration_ms"].(float64); ms < 5 {
		t.Errorf("trace duration %vms, want >= the 5ms search delay", ms)
	}

	// The tree: root /route with slice-select, cache-lookup (miss) and
	// search phases in request order.
	root := tr["root"].(map[string]any)
	if root["name"] != "/route" {
		t.Fatalf("root span = %v", root["name"])
	}
	names := childNames(root)
	if len(names) < 4 || names[0] != "slice-select" || names[1] != "cache-lookup" || names[2] != "search" || names[3] != "encode" {
		t.Fatalf("root children = %v, want [slice-select cache-lookup search encode]", names)
	}
	cache := childByName(t, root, "cache-lookup")
	if cache["attrs"].(map[string]any)["hit"] != false {
		t.Errorf("cache-lookup attrs = %v, want hit=false", cache["attrs"])
	}
	search := childByName(t, root, "search")
	attrs := search["attrs"].(map[string]any)
	if attrs["expansions"] != float64(7) || attrs["found"] != true {
		t.Errorf("search attrs = %v", attrs)
	}

	// A second identical request hits the cache; its trace records the
	// hit and no search span.
	req2 := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	req2.Header.Set("X-Request-ID", "trace-hit")
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req2)
	hitTraces := tracesOf(t, debugTraces(t, h, "?request_id=trace-hit"))
	if len(hitTraces) != 1 {
		t.Fatalf("want 1 hit trace, got %d", len(hitTraces))
	}
	hitRoot := hitTraces[0]["root"].(map[string]any)
	hitCache := childByName(t, hitRoot, "cache-lookup")
	if hitCache["attrs"].(map[string]any)["hit"] != true {
		t.Errorf("hit trace cache-lookup attrs = %v", hitCache["attrs"])
	}
	for _, n := range childNames(hitRoot) {
		if n == "search" {
			t.Error("cache hit must not carry a search span")
		}
	}

	// The slow miss left an exemplar on the latency histogram, visible
	// only in the OpenMetrics rendering, and its trace ID resolves.
	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mreq.Header.Set("Accept", "application/openmetrics-text")
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	om := mrec.Body.String()
	if !strings.Contains(om, `# {trace_id="`+tp.TraceID+`"}`) {
		t.Errorf("OpenMetrics exposition has no exemplar for trace %s", tp.TraceID)
	}
	if got := tracer.Store().Find(tp.TraceID); got == nil {
		t.Errorf("exemplar trace %s does not resolve in the span store", tp.TraceID)
	}
	byID := tracesOf(t, debugTraces(t, h, "?trace_id="+tp.TraceID))
	if len(byID) != 1 || byID[0]["request_id"] != "trace-me" {
		t.Errorf("lookup by trace_id = %v", byID)
	}

	// The plain 0.0.4 exposition stays exemplar-free.
	preq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	prec2 := httptest.NewRecorder()
	h.ServeHTTP(prec2, preq)
	if strings.Contains(prec2.Body.String(), "# {") {
		t.Error("default exposition leaked exemplar syntax")
	}

	// min_ms filters: everything recorded is over 1000ms? No — nothing
	// is, so the list must come back empty.
	if fast := tracesOf(t, debugTraces(t, h, "?min_ms=60000")); len(fast) != 0 {
		t.Errorf("min_ms=60000 returned %d traces", len(fast))
	}
}

// TestTracingRouteCarriesTheQuery: a sampled /route's slice-select span
// names the query itself — endpoints, budget, departure — beside the
// slice and epoch that serve it, so the span tree alone says what was
// asked (what the retired 1-in-N query_trace log line carried).
func TestTracingRouteCarriesTheQuery(t *testing.T) {
	fb := newFakeBackendSlices(t, 2)
	s := New(fb, Config{Tracer: obs.NewTracer(obs.NewSpanStore(16, 0), 1)})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/route?source=3&dest=4&budget=87.5&depart=50000", nil)
	req.Header.Set("X-Request-ID", "what-was-asked")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("route status %d: %s", rec.Code, rec.Body.String())
	}
	traces := tracesOf(t, debugTraces(t, h, "?request_id=what-was-asked"))
	if len(traces) != 1 {
		t.Fatalf("want 1 trace, got %d", len(traces))
	}
	attrs := childByName(t, traces[0]["root"].(map[string]any), "slice-select")["attrs"].(map[string]any)
	want := map[string]any{
		"source": float64(3), "dest": float64(4), "budget_s": 87.5, "depart_s": float64(50000),
		"slice": float64(fb.SliceOf(50000)), "epoch": float64(fb.SliceEpoch(fb.SliceOf(50000))), "time_expanded": false,
	}
	for k, v := range want {
		if attrs[k] != v {
			t.Errorf("slice-select attr %s = %v, want %v (attrs: %v)", k, attrs[k], v, attrs)
		}
	}
}

// TestTracingBatchPerItemSpans: every batch item gets its own batch-item
// span under the /route/batch root — cache hits spanned by the server,
// misses by the backend — and per-item latency observations land in the
// histogram.
func TestTracingBatchPerItemSpans(t *testing.T) {
	fb := newFakeBackend(t)
	tracer := obs.NewTracer(obs.NewSpanStore(16, 0), 1)
	s := New(fb, Config{Tracer: tracer})
	h := s.Handler()

	// Warm the cache with one query, then batch it together with a miss.
	if rec, _ := get(t, h, "/route?source=1&dest=2&budget=100"); rec.Code != http.StatusOK {
		t.Fatalf("warm-up failed: %d", rec.Code)
	}
	rec, out := postBatch(t, h, `{"queries":[
		{"source":1,"dest":2,"budget_s":100},
		{"source":3,"dest":4,"budget_s":80}
	]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if out.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", out.CacheHits)
	}

	traces := tracesOf(t, debugTraces(t, h, "?endpoint=/route/batch"))
	if len(traces) != 1 {
		t.Fatalf("want 1 batch trace, got %d", len(traces))
	}
	root := traces[0]["root"].(map[string]any)
	var items []map[string]any
	for _, k := range root["children"].([]any) {
		m := k.(map[string]any)
		if m["name"] == "batch-item" {
			items = append(items, m)
		}
	}
	if len(items) != 2 {
		t.Fatalf("batch-item spans = %d, want 2 (children: %v)", len(items), childNames(root))
	}
	var sawCached, sawSearch bool
	for _, it := range items {
		attrs, _ := it["attrs"].(map[string]any)
		if attrs["cached"] == true {
			sawCached = true
			continue
		}
		// The miss item's span owns the actual search.
		kids, _ := it["children"].([]any)
		for _, k := range kids {
			if k.(map[string]any)["name"] == "search" {
				sawSearch = true
			}
		}
	}
	if !sawCached || !sawSearch {
		t.Errorf("batch spans incomplete: cached=%v searched=%v (%v)", sawCached, sawSearch, items)
	}
}

// TestStatsRuntimeBlock: /stats carries the Go runtime block.
func TestStatsRuntimeBlock(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	rec, body := get(t, s.Handler(), "/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats status %d", rec.Code)
	}
	raw, err := json.Marshal(body["runtime"])
	if err != nil {
		t.Fatal(err)
	}
	var rt struct {
		Goroutines     int     `json:"goroutines"`
		HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
		GCPauseTotalS  float64 `json:"gc_pause_total_s"`
		GOMAXPROCS     int     `json:"gomaxprocs"`
	}
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatalf("runtime block %s: %v", raw, err)
	}
	if rt.Goroutines < 1 || rt.HeapInuseBytes == 0 || rt.GOMAXPROCS < 1 {
		t.Errorf("implausible runtime block: %+v", rt)
	}
}

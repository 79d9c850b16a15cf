package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/obs"
	"stochroute/internal/traj"
)

// scrape fetches /metrics and parses the exposition.
func scrape(t *testing.T, h http.Handler) (string, []obs.Sample) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	text := rec.Body.String()
	samples, err := obs.ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}
	return text, samples
}

// sampleValue finds one series by name and an optional required label
// set (subset match).
func sampleValue(t *testing.T, samples []obs.Sample, name string, labels map[string]string) float64 {
	t.Helper()
	for _, s := range samples {
		if s.Name != name {
			continue
		}
		ok := true
		for k, v := range labels {
			if s.Label(k) != v {
				ok = false
				break
			}
		}
		if ok {
			return s.Value
		}
	}
	t.Fatalf("series %s%v absent from scrape", name, labels)
	return 0
}

// TestMetricsExposition drives the real handler stack and asserts the
// scrape carries every metric family the observability contract
// promises, with the label breakdowns a dashboard keys on. When
// METRICS_SCRAPE_OUT is set the scrape body is also written there (CI
// uploads it as a build artifact).
func TestMetricsExposition(t *testing.T) {
	fb := newFakeBackendSlices(t, 2)
	s := New(fb, Config{BudgetBucketSeconds: 15})
	h := s.Handler()

	get(t, h, "/route?source=1&dest=2&budget=100") // miss
	get(t, h, "/route?source=1&dest=2&budget=104") // hit (same bucket)
	get(t, h, "/route?source=1&dest=2")            // validation error
	get(t, h, "/route?source=1&dest=2&budget=100&depart=50000&time_expanded=true")
	get(t, h, "/healthz")

	text, samples := scrape(t, h)

	if got := sampleValue(t, samples, "http_requests_total", map[string]string{"endpoint": "/route"}); got != 4 {
		t.Errorf(`http_requests_total{endpoint="/route"} = %v, want 4`, got)
	}
	if got := sampleValue(t, samples, "http_request_errors_total", map[string]string{"endpoint": "/route"}); got != 1 {
		t.Errorf(`http_request_errors_total{endpoint="/route"} = %v, want 1`, got)
	}
	if got := sampleValue(t, samples, "http_request_duration_seconds_count", map[string]string{"endpoint": "/healthz"}); got != 1 {
		t.Errorf("healthz latency count = %v, want 1", got)
	}
	// route_latency_seconds breaks down by slice, cache outcome and
	// time-expanded mode.
	if got := sampleValue(t, samples, "route_latency_seconds_count",
		map[string]string{"slice": "0", "cache": "miss", "time_expanded": "false"}); got != 1 {
		t.Errorf("route miss latency count = %v, want 1", got)
	}
	if got := sampleValue(t, samples, "route_latency_seconds_count",
		map[string]string{"slice": "0", "cache": "hit", "time_expanded": "false"}); got != 1 {
		t.Errorf("route hit latency count = %v, want 1", got)
	}
	if got := sampleValue(t, samples, "route_latency_seconds_count",
		map[string]string{"slice": "1", "cache": "miss", "time_expanded": "true"}); got != 1 {
		t.Errorf("time-expanded latency count = %v, want 1", got)
	}
	if got := sampleValue(t, samples, "cache_hits_total", map[string]string{"cache": "route", "slice": "0"}); got != 1 {
		t.Errorf("route cache hits = %v, want 1", got)
	}
	// One recorded miss: the time-expanded request bypasses the cache
	// in both directions, so it never counts as a cache miss.
	if got := sampleValue(t, samples, "cache_misses_total", map[string]string{"cache": "route", "slice": "0"}); got != 1 {
		t.Errorf("route cache misses = %v, want 1", got)
	}
	if got := sampleValue(t, samples, "model_epoch", nil); got != 1 {
		t.Errorf("model_epoch = %v, want 1", got)
	}
	for _, slice := range []string{"0", "1"} {
		if got := sampleValue(t, samples, "slice_epoch", map[string]string{"slice": slice}); got != 1 {
			t.Errorf("slice_epoch{slice=%q} = %v, want 1", slice, got)
		}
	}
	if got := sampleValue(t, samples, "degraded", nil); got != 0 {
		t.Errorf("degraded = %v, want 0 without an ingestor", got)
	}
	if got := sampleValue(t, samples, "uptime_seconds", nil); got < 0 {
		t.Errorf("uptime_seconds = %v", got)
	}
	sampleValue(t, samples, "arena_bytes_inuse", nil)
	sampleValue(t, samples, "inflight_requests", nil)
	sampleValue(t, samples, "cache_entries", map[string]string{"cache": "route", "slice": "1"})

	// A per-slice hot swap moves slice_epoch for that slice only.
	fb.bumpSlice(1)
	_, samples = scrape(t, h)
	if got := sampleValue(t, samples, "slice_epoch", map[string]string{"slice": "1"}); got != 2 {
		t.Errorf("post-swap slice_epoch{1} = %v, want 2", got)
	}
	if got := sampleValue(t, samples, "slice_epoch", map[string]string{"slice": "0"}); got != 1 {
		t.Errorf("post-swap slice_epoch{0} = %v, want 1", got)
	}

	if out := os.Getenv("METRICS_SCRAPE_OUT"); out != "" {
		if err := os.WriteFile(out, []byte(text), 0o644); err != nil {
			t.Fatalf("writing scrape artifact: %v", err)
		}
	}
}

// TestStatsMetricsAgree: /stats endpoint counters and /metrics are two
// views over the SAME atomics — they can never disagree at rest.
func TestStatsMetricsAgree(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	h := s.Handler()
	for i := 0; i < 5; i++ {
		get(t, h, "/route?source=1&dest=2&budget=100")
	}
	get(t, h, "/route?source=1&dest=2") // error

	_, stats := get(t, h, "/stats")
	eps := stats["endpoints"].(map[string]any)
	route := eps["/route"].(map[string]any)
	if _, ok := stats["arena_bytes_inuse"]; !ok {
		t.Error("/stats missing arena_bytes_inuse")
	}

	_, samples := scrape(t, h)
	if got := sampleValue(t, samples, "http_requests_total", map[string]string{"endpoint": "/route"}); got != route["requests"].(float64) {
		t.Errorf("requests: /metrics %v vs /stats %v", got, route["requests"])
	}
	if got := sampleValue(t, samples, "http_request_errors_total", map[string]string{"endpoint": "/route"}); got != route["errors"].(float64) {
		t.Errorf("errors: /metrics %v vs /stats %v", got, route["errors"])
	}
}

// TestMetricsConcurrentScrape scrapes /metrics continuously while many
// goroutines hammer the instrumented endpoints — under -race this is
// the observability concurrency gate (every counter, gauge func and
// histogram is read mid-write).
func TestMetricsConcurrentScrape(t *testing.T) {
	fb := newFakeBackendSlices(t, 2)
	s := New(fb, Config{SlowQueryThreshold: time.Nanosecond, TraceLogger: slog.New(slog.NewTextHandler(&syncWriter{}, nil))})
	h := s.Handler()

	const workers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := graph.VertexID(1 + (w+i)%4)
				url := fmt.Sprintf("/route?source=%d&dest=2&budget=%d&depart=%d", src, 90+i%6, (i%2)*30000)
				req := httptest.NewRequest(http.MethodGet, url, nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				if i%7 == 0 {
					get(t, h, "/stats")
				}
			}
		}(w)
	}
	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		_, samples := scrape(t, h)
		// Spot-check mid-traffic consistency: every parsed sample is
		// finite and the request counter only moves forward.
		sampleValue(t, samples, "http_requests_total", map[string]string{"endpoint": "/route"})
	}
	close(stop)
	wg.Wait()

	_, samples := scrape(t, h)
	perEndpoint := sampleValue(t, samples, "http_requests_total", map[string]string{"endpoint": "/route"})
	latCount := 0.0
	for _, smp := range samples {
		if smp.Name == "http_request_duration_seconds_count" && smp.Label("endpoint") == "/route" {
			latCount = smp.Value
		}
	}
	if perEndpoint == 0 || latCount != perEndpoint {
		t.Errorf("after traffic: requests=%v latency count=%v, want equal and positive", perEndpoint, latCount)
	}
}

// syncWriter is a goroutine-safe sink for slow_query lines emitted from
// concurrent handlers.
type syncWriter struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (w *syncWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *syncWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.String()
}

// TestSlowQueryLogJoin: a request slower than the threshold emits one
// structured slow_query line whose request_id matches the X-Request-ID
// echoed to the client — the operator joins logs to responses on it.
func TestSlowQueryLogJoin(t *testing.T) {
	var logBuf syncWriter
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	fb := newFakeBackend(t)
	s := New(fb, Config{SlowQueryThreshold: time.Nanosecond, TraceLogger: logger})
	h := s.Handler()

	req := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	req.Header.Set("X-Request-ID", "client-supplied-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get("X-Request-ID"); got != "client-supplied-42" {
		t.Fatalf("X-Request-ID echoed %q, want client-supplied-42", got)
	}

	// Without a client ID the server mints one and still echoes it.
	rec2, _ := get(t, h, "/route?source=3&dest=4&budget=100")
	minted := rec2.Header().Get("X-Request-ID")
	if minted == "" {
		t.Fatal("server did not mint an X-Request-ID")
	}

	var found, foundMinted bool
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var entry map[string]any
		if err := json.Unmarshal([]byte(line), &entry); err != nil {
			t.Fatalf("unparsable log line %q: %v", line, err)
		}
		if entry["msg"] != "slow_query" {
			continue
		}
		switch entry["request_id"] {
		case "client-supplied-42":
			found = true
			if entry["endpoint"] != "/route" || entry["src"] != float64(1) || entry["dst"] != float64(2) {
				t.Errorf("slow_query line missing query identity: %v", entry)
			}
			if entry["budget_s"] != float64(100) || entry["cache_hit"] != false {
				t.Errorf("slow_query line missing outcome fields: %v", entry)
			}
			if _, ok := entry["expansions"]; !ok {
				t.Errorf("slow_query line missing search counters: %v", entry)
			}
			if _, ok := entry["latency_ms"]; !ok {
				t.Errorf("slow_query line missing latency: %v", entry)
			}
		case minted:
			foundMinted = true
		}
	}
	if !found {
		t.Errorf("no slow_query line for client-supplied-42 in:\n%s", logBuf.String())
	}
	if !foundMinted {
		t.Errorf("no slow_query line for minted ID %s in:\n%s", minted, logBuf.String())
	}
}

// kbTarget adapts a fakeBackend into an ingest.Target with a real
// knowledge base, so the drift monitor has marginals to score against.
type kbTarget struct {
	fb *fakeBackend
	kb *hybrid.KnowledgeBase
}

func (t *kbTarget) Graph() *graph.Graph                          { return t.fb.g }
func (t *kbTarget) NumSlices() int                               { return t.fb.NumSlices() }
func (t *kbTarget) SliceKnowledgeBase(int) *hybrid.KnowledgeBase { return t.kb }
func (t *kbTarget) ModelEpoch() uint64                           { return t.fb.epoch.Load() }
func (t *kbTarget) SwapSliceModel(slice int, m *hybrid.Model, obs *traj.ObservationStore) (uint64, error) {
	return t.fb.epoch.Add(1), nil
}

// TestHealthzDegraded: once a slice's drift monitor fires with no
// rebuild able to swap, /healthz must flip degraded until a swap lands
// — the liveness probe stays ok, but the readiness story changes.
func TestHealthzDegraded(t *testing.T) {
	fb := newFakeBackend(t)
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	world, err := traj.NewWorld(fb.g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 500, MinEdges: 4, MaxEdges: 12, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	store := traj.NewObservationStore(fb.g, wcfg.BucketWidth)
	store.Collect(trs)
	kb, err := hybrid.BuildKnowledgeBase(fb.g, store, wcfg.BucketWidth, 6)
	if err != nil {
		t.Fatal(err)
	}
	ing := ingest.New(&kbTarget{fb: fb, kb: kb}, ingest.Config{
		Hybrid:                 hybrid.Config{Width: wcfg.BucketWidth, MinPairObs: 4},
		Drift:                  ingest.DriftConfig{Window: 200, MinEdgeObs: 6},
		MinRebuildTrajectories: 1 << 30, // drift can fire, rebuilds never start
	}, nil)
	s := New(fb, Config{Ingestor: ing})
	h := s.Handler()

	_, body := get(t, h, "/healthz")
	if body["degraded"] != false {
		t.Fatalf("fresh server degraded: %v", body)
	}

	// Double every travel time: unmistakable drift against kb.
	shiftedTrs := make([]traj.Trajectory, len(trs))
	for i, tr := range trs {
		times := make([]float64, len(tr.Times))
		for j, v := range tr.Times {
			times[j] = v * 2
		}
		shiftedTrs[i] = traj.Trajectory{Edges: tr.Edges, Times: times, Departure: tr.Departure}
	}
	ing.Ingest(shiftedTrs)
	ing.WaitRebuilds()
	if ing.Status().DriftEvents == 0 {
		t.Fatalf("drift never fired: %+v", ing.Status())
	}

	_, body = get(t, h, "/healthz")
	if body["degraded"] != true {
		t.Errorf("healthz degraded = %v after drift with no swap", body["degraded"])
	}
	_, samples := scrape(t, h)
	if got := sampleValue(t, samples, "degraded", nil); got != 1 {
		t.Errorf("degraded gauge = %v, want 1", got)
	}
}

package httpsvc_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochroute/internal/gateway"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
	"stochroute/internal/server"
)

// The chassis contract, executed against BOTH services that mount it:
// the replica (server.New over a stub backend) and the gateway
// (gateway.New over a fake replica). Each row states one clause of the
// wrapper protocol; a service-specific expectation (the fallback
// status) is a field of the fixture, everything else must hold
// unchanged on both.

// stubBackend answers /route with a fixed route. Only the methods the
// contract rows reach are implemented; the embedded nil interface
// panics on anything else.
type stubBackend struct {
	server.Backend
	g *graph.Graph
}

func (b *stubBackend) Graph() *graph.Graph   { return b.g }
func (b *stubBackend) NumSlices() int        { return 1 }
func (b *stubBackend) SliceOf(float64) int   { return 0 }
func (b *stubBackend) SliceEpoch(int) uint64 { return 1 }
func (b *stubBackend) SliceEpochs() []uint64 { return []uint64{1} }
func (b *stubBackend) ModelEpoch() uint64    { return 1 }
func (b *stubBackend) RouteCtx(ctx context.Context, src, dst graph.VertexID, opts routing.Options) (*routing.Result, error) {
	d := hist.Uniform(10, 5, 4)
	return &routing.Result{Path: []graph.EdgeID{0}, Dist: d, Prob: d.CDF(opts.Budget), Found: true, Complete: true, ModelEpoch: 1}, nil
}

// fixture is one service under the contract.
type fixture struct {
	name     string
	h        http.Handler
	fallback int // status of an untyped handler error
}

// services builds both fixtures with the same tracer and metrics
// switches. The replica carries ReplicaID r1 and the gateway fronts a
// fake replica of the same identity, so X-Replica reads r1 on both.
func services(t *testing.T, tracer func() *obs.Tracer, disableMetrics bool) []fixture {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.Rows, cfg.Cols, cfg.MotorwayRing, cfg.DropFrac = 4, 4, false, 0
	g, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(&stubBackend{g: g}, server.Config{
		ReplicaID: "r1", Tracer: tracer(), DisableMetrics: disableMetrics,
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","model_epoch":1,"replica":"r1"}`)
	})
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"found":true}`)
	})
	rep := httptest.NewServer(mux)
	t.Cleanup(rep.Close)
	gw, err := gateway.New(gateway.Config{
		Replicas:      []gateway.Replica{{ID: "r1", URL: rep.URL}},
		ProbeInterval: time.Hour, // the rows assert on requests, not probe recovery
		Tracer:        tracer(), DisableMetrics: disableMetrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	gw.Start(ctx)

	return []fixture{
		{"replica", srv.Handler(), http.StatusInternalServerError},
		{"gateway", gw.Handler(), http.StatusBadGateway},
	}
}

func noTracer() *obs.Tracer { return nil }

// forcedOnly samples 1 request in a million: only a sampled inbound
// traceparent traces.
func forcedOnly() *obs.Tracer { return obs.NewTracer(obs.NewSpanStore(16, 0), 1000000) }

func everyRequest() *obs.Tracer { return obs.NewTracer(obs.NewSpanStore(16, 0), 1) }

const okRoute = "/route?source=1&dest=2&budget=100"

func do(h http.Handler, method, url string, header ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, url, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// errorBody asserts the one error shape: application/json carrying
// exactly {"error": "<non-empty>"}.
func errorBody(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q is not a JSON object of strings: %v", rec.Body.String(), err)
	}
	if len(body) != 1 || body["error"] == "" {
		t.Errorf(`error body = %v, want exactly {"error": "..."}`, body)
	}
	return body["error"]
}

// tracedCount reads how many traces a service retains, through its own
// /debug/traces.
func tracedCount(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := do(h, http.MethodGet, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces: status %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Retained int `json:"retained"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	return out.Retained
}

// brokenWriter accepts headers and a status but fails every body write,
// so a handler's own encode step returns an untyped error.
type brokenWriter struct {
	header http.Header
	status int
}

func (w *brokenWriter) Header() http.Header       { return w.header }
func (w *brokenWriter) WriteHeader(status int)    { w.status = status }
func (w *brokenWriter) Write([]byte) (int, error) { return 0, errors.New("connection reset") }

func TestChassisContract(t *testing.T) {
	rows := []struct {
		name           string
		tracer         func() *obs.Tracer
		disableMetrics bool
		check          func(t *testing.T, f fixture)
	}{
		{"wrong method: 405 + Allow, nothing else happens", noTracer, false, func(t *testing.T, f fixture) {
			rec := do(f.h, http.MethodPost, okRoute)
			if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != http.MethodGet {
				t.Errorf("POST /route: status %d Allow %q, want 405 GET", rec.Code, rec.Header().Get("Allow"))
			}
			if msg := errorBody(t, rec); msg != "method not allowed" {
				t.Errorf("405 message = %q", msg)
			}
			if rid := rec.Header().Get("X-Request-ID"); rid != "" {
				t.Errorf("a refused method was given request ID %q", rid)
			}
			if m := do(f.h, http.MethodGet, "/metrics").Body.String(); !strings.Contains(m, `http_requests_total{endpoint="/route"} 0`) {
				t.Error("a refused method was counted as a request")
			}
		}},
		{"X-Request-ID echoed or minted before the handler runs", noTracer, false, func(t *testing.T, f fixture) {
			if got := do(f.h, http.MethodGet, okRoute, "X-Request-ID", "mine-42").Header().Get("X-Request-ID"); got != "mine-42" {
				t.Errorf("client request ID echoed as %q", got)
			}
			// A request the handler rejects still carries an ID: it was
			// stamped before the handler ran.
			rec := do(f.h, http.MethodGet, "/route?source=1")
			if rec.Code != http.StatusBadRequest || rec.Header().Get("X-Request-ID") == "" {
				t.Errorf("rejected request: status %d, minted ID %q", rec.Code, rec.Header().Get("X-Request-ID"))
			}
		}},
		{"X-Replica names the answering replica", noTracer, false, func(t *testing.T, f fixture) {
			rec := do(f.h, http.MethodGet, okRoute)
			if rec.Code != http.StatusOK || rec.Header().Get("X-Replica") != "r1" {
				t.Errorf("status %d X-Replica %q, want 200 r1: %s", rec.Code, rec.Header().Get("X-Replica"), rec.Body.String())
			}
		}},
		{"sampled traceparent adopted and answered with Traceparent", forcedOnly, false, func(t *testing.T, f fixture) {
			traceID := obs.NewTraceID()
			rec := do(f.h, http.MethodGet, okRoute, "traceparent", obs.FormatTraceparent(traceID, "00f067aa0ba902b7", true))
			tp, ok := obs.ParseTraceparent(rec.Header().Get("Traceparent"))
			if !ok || !tp.Sampled || tp.TraceID != traceID {
				t.Fatalf("response Traceparent %q does not continue trace %s", rec.Header().Get("Traceparent"), traceID)
			}
			body := do(f.h, http.MethodGet, "/debug/traces?trace_id="+traceID).Body.String()
			if !strings.Contains(body, `"parent_span_id":"00f067aa0ba902b7"`) || !strings.Contains(body, `"span_id":"`+tp.SpanID+`"`) {
				t.Errorf("stored trace does not join the caller's span and the advertised root: %s", body)
			}
			// Unsampled: no header, no trace.
			if got := do(f.h, http.MethodGet, okRoute).Header().Get("Traceparent"); got != "" {
				t.Errorf("unsampled request advertised a trace: %q", got)
			}
			if n := tracedCount(t, f.h); n != 1 {
				t.Errorf("%d traces retained, want only the forced one", n)
			}
		}},
		{"scrape endpoints are never self-sampled", everyRequest, false, func(t *testing.T, f fixture) {
			for i := 0; i < 3; i++ {
				do(f.h, http.MethodGet, "/metrics")
				do(f.h, http.MethodGet, "/debug/traces")
			}
			if n := tracedCount(t, f.h); n != 0 {
				t.Errorf("scrape endpoints produced %d traces, want 0", n)
			}
			do(f.h, http.MethodGet, okRoute)
			if n := tracedCount(t, f.h); n != 1 {
				t.Errorf("%d traces after one routed request, want 1", n)
			}
		}},
		{"debug traces: 404 without a tracer", noTracer, false, func(t *testing.T, f fixture) {
			if rec := do(f.h, http.MethodGet, "/debug/traces"); rec.Code != http.StatusNotFound {
				t.Errorf("/debug/traces without a tracer: status %d, want 404", rec.Code)
			}
		}},
		{"metrics content type follows Accept", noTracer, false, func(t *testing.T, f fixture) {
			rec := do(f.h, http.MethodGet, "/metrics")
			if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
				t.Errorf("default Content-Type = %q", ct)
			}
			if _, err := obs.ParseText(rec.Body); err != nil {
				t.Errorf("default exposition does not parse: %v", err)
			}
			rec = do(f.h, http.MethodGet, "/metrics", "Accept", "application/openmetrics-text; version=1.0.0")
			if ct := rec.Header().Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
				t.Errorf("OpenMetrics Content-Type = %q", ct)
			}
			if !strings.HasSuffix(rec.Body.String(), "# EOF\n") {
				t.Error("OpenMetrics exposition lacks its # EOF terminator")
			}
		}},
		{"DisableMetrics: metrics 404, stats still counts", noTracer, true, func(t *testing.T, f fixture) {
			do(f.h, http.MethodGet, okRoute)
			if rec := do(f.h, http.MethodGet, "/metrics"); rec.Code != http.StatusNotFound {
				t.Errorf("/metrics with DisableMetrics: status %d, want 404", rec.Code)
			}
			var stats struct {
				Endpoints map[string]struct{ Requests, Errors uint64 } `json:"endpoints"`
			}
			if err := json.Unmarshal(do(f.h, http.MethodGet, "/stats").Body.Bytes(), &stats); err != nil {
				t.Fatal(err)
			}
			if got := stats.Endpoints["/route"].Requests; got != 1 {
				t.Errorf("/stats counts %d /route requests without /metrics, want 1", got)
			}
		}},
		{"typed error: status and error shape, counted once in metrics and stats", noTracer, false, func(t *testing.T, f fixture) {
			rec := do(f.h, http.MethodGet, "/route?source=1")
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", rec.Code)
			}
			errorBody(t, rec)
			if m := do(f.h, http.MethodGet, "/metrics").Body.String(); !strings.Contains(m, `http_request_errors_total{endpoint="/route"} 1`) ||
				!strings.Contains(m, `http_request_duration_seconds_count{endpoint="/route"} 1`) {
				t.Error("/metrics does not show one failed, timed /route request")
			}
			if s := do(f.h, http.MethodGet, "/stats").Body.String(); !strings.Contains(s, `"/route":{"requests":1,"errors":1}`) {
				t.Errorf("/stats disagrees with /metrics: %s", s)
			}
		}},
		{"untyped error: the service's fallback status", noTracer, false, func(t *testing.T, f fixture) {
			w := &brokenWriter{header: make(http.Header)}
			f.h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
			if w.status != f.fallback {
				t.Errorf("failed encode answered %d, want %d", w.status, f.fallback)
			}
		}},
	}
	for _, row := range rows {
		for _, f := range services(t, row.tracer, row.disableMetrics) {
			t.Run(row.name+"/"+f.name, func(t *testing.T) { row.check(t, f) })
		}
	}
}

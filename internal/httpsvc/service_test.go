package httpsvc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochroute/internal/israce"
	"stochroute/internal/obs"
)

// TestAbortedWritesNothing: a handler that fails after its body started
// gets counted and logged, and not one byte is appended to what is
// already on the wire.
func TestAbortedWritesNothing(t *testing.T) {
	var logbuf bytes.Buffer
	s := New(Options{Name: "svc", Metrics: obs.NewRegistry(), FallbackStatus: http.StatusBadGateway, LogW: &logbuf})
	s.Handle("/stream", http.MethodGet, func(w http.ResponseWriter, r *http.Request) error {
		fmt.Fprint(w, "partial")
		return &Aborted{Err: fmt.Errorf("peer died: %w", context.Canceled)}
	})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stream", nil))
	if rec.Code != http.StatusOK || rec.Body.String() != "partial" {
		t.Errorf("aborted response = %d %q, want the started 200 body untouched", rec.Code, rec.Body.String())
	}
	if got := logbuf.String(); got != "svc: /stream: peer died: context canceled\n" {
		t.Errorf("log line = %q", got)
	}
	if st := s.EndpointStats()["/stream"]; st.Requests != 1 || st.Errors != 1 {
		t.Errorf("endpoint stats = %+v, want 1 request, 1 error", st)
	}
}

// TestUnsampledRequestAllocs pins the wrapper's own cost on the path
// every unsampled request takes, with a tracer configured but not
// firing. Headers are read and stamped under their canonical keys, so
// nothing is canonicalised, and the client's request ID is echoed
// through its own value slice: zero allocations. A request without an
// ID pays for the minted string and its slice, which the request then
// carries as its own X-Request-ID too. A context wrap, a
// per-request closure, a ResponseWriter wrapper or a non-canonical
// header key would show as one more.
func TestUnsampledRequestAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := New(Options{Name: "svc", Metrics: obs.NewRegistry(), FallbackStatus: http.StatusInternalServerError,
		Tracer: obs.NewTracer(obs.NewSpanStore(4, 0), 0), ReplicaID: "r1"})
	s.Handle("/noop", http.MethodGet, func(http.ResponseWriter, *http.Request) error { return nil })
	e := s.endpoints["/noop"]
	w := &headerOnlyWriter{h: make(http.Header)}

	req := httptest.NewRequest(http.MethodGet, "/noop", nil)
	req.Header.Set("X-Request-ID", "fixed")
	req.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00") // unsampled
	if allocs := testing.AllocsPerRun(200, func() { e.ServeHTTP(w, req) }); allocs != 0 {
		t.Errorf("unsampled request with its own ID costs %v allocs in the wrapper, want 0", allocs)
	}
	if w.h.Get("X-Request-ID") != "fixed" || w.h.Get("X-Replica") != "r1" || w.h.Get("Traceparent") != "" {
		t.Errorf("stamped headers = %v, want the echoed ID, the replica and no Traceparent", w.h)
	}

	anonymous := httptest.NewRequest(http.MethodGet, "/noop", nil)
	if allocs := testing.AllocsPerRun(200, func() {
		delete(anonymous.Header, HeaderRequestID) // each run mints
		e.ServeHTTP(w, anonymous)
	}); allocs > 2 {
		t.Errorf("unsampled request without an ID costs %v allocs in the wrapper, want <= 2", allocs)
	}
	if id := anonymous.Header.Get("X-Request-ID"); id == "" || w.h.Get("X-Request-ID") != id {
		t.Errorf("minted ID %q on the response, %q on the request; want the same one on both", w.h.Get("X-Request-ID"), id)
	}
}

type headerOnlyWriter struct{ h http.Header }

func (w *headerOnlyWriter) Header() http.Header       { return w.h }
func (w *headerOnlyWriter) WriteHeader(int)           {}
func (w *headerOnlyWriter) Write([]byte) (int, error) { return 0, errors.New("unused") }

// TestServeGracefulShutdown: cancelling the context drains and returns
// nil; a listen failure is returned as is.
func TestServeGracefulShutdown(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, "127.0.0.1:0", http.NotFoundHandler()) }()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not shut down")
	}
	if err := Serve(context.Background(), "256.0.0.1:0", http.NotFoundHandler()); err == nil || strings.Contains(err.Error(), "Server closed") {
		t.Errorf("unlistenable address: err = %v, want the listen error", err)
	}
}

// TestHandlerPanicAnswers500: a panicking handler is answered 500
// {"error":"internal error"} under the request's ID, counted as an
// error, finishes its trace with the error and logs the panic with its
// stack; http.ErrAbortHandler still aborts the response.
func TestHandlerPanicAnswers500(t *testing.T) {
	var logbuf bytes.Buffer
	tracer := obs.NewTracer(obs.NewSpanStore(4, 0), 1)
	s := New(Options{Name: "svc", Metrics: obs.NewRegistry(), FallbackStatus: http.StatusBadGateway, Tracer: tracer, LogW: &logbuf})
	s.Handle("/boom", http.MethodGet, func(http.ResponseWriter, *http.Request) error { panic("boom") })
	s.Handle("/abort", http.MethodGet, func(http.ResponseWriter, *http.Request) error { panic(http.ErrAbortHandler) })

	req := httptest.NewRequest(http.MethodGet, "/boom", nil)
	req.Header.Set("X-Request-ID", "req-7")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if body := strings.TrimSpace(rec.Body.String()); rec.Code != http.StatusInternalServerError || body != `{"error":"internal error"}` {
		t.Errorf("panicking handler answered %d %s, want 500 {\"error\":\"internal error\"}", rec.Code, body)
	}
	if id := rec.Header().Get("X-Request-ID"); id != "req-7" {
		t.Errorf("X-Request-ID = %q, want the request's own", id)
	}
	if st := s.EndpointStats()["/boom"]; st.Requests != 1 || st.Errors != 1 {
		t.Errorf("endpoint stats = %+v, want 1 request, 1 error", st)
	}
	metrics := httptest.NewRecorder()
	s.Handler().ServeHTTP(metrics, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if !strings.Contains(metrics.Body.String(), `http_request_errors_total{endpoint="/boom"} 1`) {
		t.Errorf("/metrics does not count the panic as an error:\n%s", metrics.Body.String())
	}
	if traces := tracer.Store().Snapshot(); len(traces) != 1 || traces[0].RequestID != "req-7" || traces[0].Tree().Span.Err() != "internal error" {
		t.Errorf("want one trace for req-7 whose root carries the error, got %d traces", len(traces))
	}
	if log := logbuf.String(); !strings.HasPrefix(log, "svc: /boom: request req-7 panicked: boom\n") || !strings.Contains(log, "goroutine ") {
		t.Errorf("log = %q, want the panic value under the request ID, then the stack", log)
	}

	defer func() {
		if p := recover(); p != http.ErrAbortHandler {
			t.Errorf("recovered %v, want http.ErrAbortHandler raised again", p)
		}
	}()
	s.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/abort", nil))
	t.Error("a handler panicking with http.ErrAbortHandler returned normally")
}

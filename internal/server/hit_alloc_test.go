package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"stochroute/internal/israce"
)

// headerOnlyWriter keeps its header map across requests and drops the
// body, so what AllocsPerRun counts is the handler, not a recorder.
type headerOnlyWriter struct {
	h     http.Header
	bytes int
}

func (w *headerOnlyWriter) Header() http.Header { return w.h }
func (w *headerOnlyWriter) WriteHeader(int)     {}
func (w *headerOnlyWriter) Write(b []byte) (int, error) {
	w.bytes += len(b)
	return len(b), nil
}

// TestCachedRouteAllocs is the allocation budget of a cache hit, from
// mux dispatch to the last body byte, over a backend that costs
// nothing. The query string is scanned in place, the answer lives on
// the stack and is appended into a pooled buffer, and every header
// value is a shared slice, so what is left is the request ID the
// chassis mints for a client that sent none, and its value slice: 2.
// The same request cost 34 when each parameter re-parsed the query,
// encoding/json walked the answer and headers were Set by name.
func TestCachedRouteAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	h := New(newFakeBackend(t), Config{ReplicaID: "r1"}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/route?source=3&dest=30&budget=90", nil)
	w := &headerOnlyWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // the miss that fills the cache
	if got := w.h.Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache = %q, want miss", got)
	}
	w.bytes = 0
	allocs := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) })
	if got := w.h.Get("X-Cache"); got != "hit" || w.bytes == 0 {
		t.Fatalf("measured requests: X-Cache %q, %d body bytes; want hits with a body", got, w.bytes)
	}
	if allocs > 4 {
		t.Errorf("cached /route costs %v allocs, want <= 4", allocs)
	}
}

package gateway

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/israce"
)

// TestGatewayReusesFleetConnections: 16 closed-loop clients put at most
// 16 requests in flight at one replica, so once 16 connections exist
// every later request must find one parked. The bound leaves room for
// warm-up only: a request that finds nothing parked starts a dial and
// takes whichever of the two comes first, so the first round can open a
// few connections more than it ends up needing. On
// http.DefaultTransport's two idle connections per host the same load
// re-dialled throughout (170-370 connections). When the gateway's
// context ends, the parked connections are closed rather than left to
// time out.
func TestGatewayReusesFleetConnections(t *testing.T) {
	const workers, perWorker = 16, 200
	var opened, closed atomic.Int64
	allClosed := make(chan struct{})
	var stopping atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","model_epoch":1,"replica":"r1"}`)
	})
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		if enc := r.Header.Get("Accept-Encoding"); enc != "" {
			t.Errorf("gateway advertised Accept-Encoding %q to a replica", enc)
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"found":true}`)
	})
	rep := httptest.NewUnstartedServer(mux)
	rep.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			if closed.Add(1) == opened.Load() && stopping.Load() {
				close(allClosed)
			}
		}
	}
	rep.Start()
	defer rep.Close()

	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gw.Start(ctx)
	h := gw.Handler()

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/route?source=%d&dest=%d&budget=9", i, k), nil))
				if rec.Code != http.StatusOK || rec.Body.String() != `{"found":true}` {
					t.Errorf("worker %d request %d: status %d body %q", i, k, rec.Code, rec.Body.String())
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if n := opened.Load(); n > 2*workers {
		t.Errorf("%d requests from %d closed-loop workers opened %d connections, want <= %d", workers*perWorker, workers, n, 2*workers)
	}

	stopping.Store(true)
	cancel()
	select {
	case <-allClosed:
	case <-time.After(5 * time.Second):
		t.Errorf("5s after the gateway's context ended, %d of %d fleet connections are still open", opened.Load()-closed.Load(), opened.Load())
	}
}

// stubFleet answers every request sent to the "stub" scheme with one
// canned replica response, allocating nothing itself: the Response and
// its body are reused, which is safe while requests come one at a time.
type stubFleet struct {
	resp http.Response
	body stubBody
}

type stubBody struct{ bytes.Reader }

func (*stubBody) Close() error { return nil }

func (s *stubFleet) RoundTrip(*http.Request) (*http.Response, error) {
	s.body.Reset(stubAnswer)
	s.resp.Body = &s.body
	return &s.resp, nil
}

var stubAnswer = []byte(`{"source":1,"dest":2,"budget_s":100,"found":true,"complete":true,"prob":0.5,"model_epoch":1,"runtime_ms":0.01,"cached":true}` + "\n")

// discardWriter keeps its header map across requests and drops the
// body, so what AllocsPerRun counts is the gateway, not a recorder. A
// Write before any WriteHeader is a 200, as on a real connection.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header    { return w.h }
func (w *discardWriter) WriteHeader(status int) { w.status = status }
func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

// TestProxiedGETAllocs is the gateway's own allocation budget for one
// proxied GET: everything Handler() does around the transport's
// RoundTrip, which a stub stands in for. What remains is the request
// ID minted for a client that sent none (2-3), the deadline context
// and its timer (4) and the outbound Request, URL and header map (3):
// 10 in all. The same request through
// http.Client.Do, a formatted-and-reparsed URL, Set/Get header copies
// and a query map cost 47.
func TestProxiedGETAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: "stub://r1"}}})
	if err != nil {
		t.Fatal(err)
	}
	stub := &stubFleet{resp: http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}, "X-Cache": {"hit"}, "X-Replica": {"r1"}},
	}}
	gw.transport.RegisterProtocol("stub", stub)
	h := gw.Handler()
	req := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	w := &discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(500, func() { h.ServeHTTP(w, req) })
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "hit" || w.h.Get("X-Replica") != "r1" || w.h.Get("Content-Type") != "application/json" {
		t.Fatalf("proxied answer: status %d headers %v", w.status, w.h)
	}
	if allocs > 12 {
		t.Errorf("proxied GET costs %v allocs on the gateway's side of RoundTrip, want <= 12", allocs)
	}
}

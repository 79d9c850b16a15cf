package gateway

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/httpsvc"
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

// replayConn is a connection to a replica that answers every request
// with the same canned response bytes and allocates nothing itself:
// what the client writes is dropped, and each read hands out the rest
// of the current answer, starting the next copy once one is read
// through.
type replayConn struct {
	answer []byte
	off    int
}

func (c *replayConn) Read(p []byte) (int, error) {
	if c.off == len(c.answer) {
		c.off = 0
	}
	n := copy(p, c.answer[c.off:])
	c.off += n
	return n, nil
}

func (c *replayConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *replayConn) Close() error                     { return nil }
func (c *replayConn) LocalAddr() net.Addr              { return replayAddr{} }
func (c *replayConn) RemoteAddr() net.Addr             { return replayAddr{} }
func (c *replayConn) SetDeadline(time.Time) error      { return nil }
func (c *replayConn) SetReadDeadline(time.Time) error  { return nil }
func (c *replayConn) SetWriteDeadline(time.Time) error { return nil }

type replayAddr struct{}

func (replayAddr) Network() string { return "replay" }
func (replayAddr) String() string  { return "replay" }

// replayFleet builds a one-replica gateway whose replica is conn,
// reached through the client's dial hook.
func replayFleet(t *testing.T, conn *replayConn) *Gateway {
	t.Helper()
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: "http://r1"}}})
	if err != nil {
		t.Fatal(err)
	}
	gw.reps[0].client.dial = func(context.Context, time.Time, string) (net.Conn, error) { return conn, nil }
	return gw
}

// replayAnswer is a replica's answer as it arrives on the wire: the
// head a replica's chassis writes and body, framed by its length.
func replayAnswer(cache string, body []byte) []byte {
	head := "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Replica: r1\r\nX-Request-Id: 0123456789abcdef\r\n"
	if cache != "" {
		head += "X-Cache: " + cache + "\r\n"
	}
	head += fmt.Sprintf("Date: Mon, 19 Oct 2026 06:00:00 GMT\r\nContent-Length: %d\r\n\r\n", len(body))
	return append([]byte(head), body...)
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

// TestProxiedGETAllocs is the gateway's allocation budget for one
// proxied GET, its client included: Handler() runs in-process against
// one replica connection, reached through the dial hook, that replays
// a canned answer. The request carries a cancellable context, as one
// from a live connection does, and no X-Request-ID: each run deletes
// the one the chassis wrote into it on the run before. What remains is
// the request ID minted for a client that sent none (2: the ID and its
// header slice) and the context.AfterFunc that ends the exchange if the
// client leaves (2), 4 in all: writing the request, reading the
// answer's head and relaying its body reuse the connection's buffers
// and the shared header values. The same request through net/http's
// Transport cost 10 around RoundTrip and about 50 inside it, and
// through http.Client.Do, a formatted-and-reparsed URL, Set/Get header
// copies and a query map 47 around it.
func TestProxiedGETAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	gw := replayFleet(t, &replayConn{answer: replayAnswer("hit", stubAnswer)})
	h := gw.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequestWithContext(ctx, http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	w := &discardWriter{h: make(http.Header)}
	allocs := testing.AllocsPerRun(500, func() {
		delete(req.Header, httpsvc.HeaderRequestID) // each run mints
		h.ServeHTTP(w, req)
	})
	if w.status != http.StatusOK || w.h.Get("X-Cache") != "hit" || w.h.Get("X-Replica") != "r1" || w.h.Get("Content-Type") != "application/json" {
		t.Fatalf("proxied answer: status %d headers %v", w.status, w.h)
	}
	t.Logf("proxied GET: %.1f allocations", allocs)
	if allocs > 12 {
		t.Errorf("proxied GET costs %v allocs on the gateway, its client included, want <= 12", allocs)
	}
}

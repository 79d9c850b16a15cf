package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/httpsvc"
	"stochroute/internal/israce"
	"stochroute/internal/obs"
)

// TestStaleConnectionIsRedialled: a replica that closed its idle
// connections (a restart, an idle timeout) is answered on a fresh
// connection; the request parked on a dead one is sent again, so the
// replica is neither failed over nor marked down.
func TestStaleConnectionIsRedialled(t *testing.T) {
	rep := fakeReplica(t, "r1", 0)
	_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}})
	get := func() {
		t.Helper()
		resp, err := http.Get(base + "/route?source=1&dest=2&budget=5")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != `{"found":true}` {
			t.Fatalf("status %d body %q", resp.StatusCode, body)
		}
	}
	get()
	rep.CloseClientConnections()
	for i := 0; i < 3; i++ {
		get()
	}
	status, states, failovers := fleetStates(t, base)
	if status != "ok" || states["r1"] != "healthy" || failovers["r1"] != 0 {
		t.Errorf("after the replica dropped its idle connections: fleet %q, replica %q with %d failovers; want ok, healthy, 0", status, states["r1"], failovers["r1"])
	}
}

// TestChunkedAnswersRelayed: answers the replica streams in chunks, a
// proxied GET's and a sub-batch's, each over 2 KiB, reach the client
// whole: the GET's byte for byte, the batch's results as the replica
// wrote them.
func TestChunkedAnswersRelayed(t *testing.T) {
	long := `{"found":true,"path":[` + strings.Repeat("12345,", 600) + `6]}`
	batch := cannedAnswer(24)
	if len(batch) < 2<<10 {
		t.Fatalf("batch answer is %d bytes, want over 2 KiB", len(batch))
	}
	chunked := func(w http.ResponseWriter, doc []byte) {
		w.Header().Set("Content-Type", "application/json")
		for len(doc) > 0 {
			n := min(len(doc), 700)
			w.Write(doc[:n])
			w.(http.Flusher).Flush() // no Content-Length: each flush is a chunk
			doc = doc[n:]
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","model_epoch":1,"replica":"r1"}`)
	})
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) { chunked(w, []byte(long)) })
	mux.HandleFunc("/route/batch", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		chunked(w, batch)
	})
	rep := httptest.NewServer(mux)
	defer rep.Close()
	_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}})

	for i := 0; i < 2; i++ { // the second rides the connection the first parked
		resp, err := http.Get(base + "/route?source=1&dest=2&budget=5")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || string(body) != long {
			t.Fatalf("GET %d: status %d, %d of %d bytes, identical %v (%v)", i, resp.StatusCode, len(body), len(long), string(body) == long, err)
		}

		resp, err = http.Post(base+"/route/batch", "application/json", bytes.NewReader(batchBody(24)))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Results []json.RawMessage `json:"results"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(got.Results) != 24 {
			t.Fatalf("batch %d: status %d, %d results (%v)", i, resp.StatusCode, len(got.Results), err)
		}
		for k, res := range got.Results {
			want := fmt.Sprintf(`{"replica":"r1","source":%d,"dest":%d,"budget_s":120.5,"found":true,"complete":true,"prob":0.75,"path":[3,1,4,1,5],"model_epoch":1,"runtime_ms":0,"cached":false}`, k, k+1)
			if string(res) != want {
				t.Fatalf("batch %d result %d = %s, want %s", i, k, res, want)
			}
		}
	}
}

// TestFleetAnswersAccepted holds the fleet client to every answer shape
// a replica writes to the gateway's requests: an httpsvc chassis on
// net/http's server answers with a length, chunked (over net/http's
// 2 KiB buffer), empty, with the chassis's 400, 404, 405 and 500, with
// Connection: close, and with the 431 net/http's server writes before
// any handler runs, its body running to the connection's end. Each
// reaches the gateway's client as the replica wrote it to net/http's
// own client (status, Content-Type, X-Cache, X-Replica, which the
// gateway fills in where the replica wrote none, and the body byte for
// byte), and none marks the replica down.
func TestFleetAnswersAccepted(t *testing.T) {
	large := `{"found":true,"path":[` + strings.Repeat("12345,", 600) + `6]}`
	svc := httpsvc.New(httpsvc.Options{Name: "server", Metrics: obs.NewRegistry(), FallbackStatus: http.StatusInternalServerError, ReplicaID: "r1"})
	svc.Handle("/healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) error {
		return httpsvc.WriteJSONBytes(w, []byte(`{"status":"ok","model_epoch":1,"replica":"r1"}`))
	})
	svc.Handle("/route", http.MethodGet, func(w http.ResponseWriter, r *http.Request) error {
		switch httpsvc.QueryParam(r, "shape") {
		case "small":
			w.Header().Set("X-Cache", "hit")
			return httpsvc.WriteJSONBytes(w, []byte(`{"found":true}`))
		case "large":
			w.Header().Set("X-Cache", "miss")
			return httpsvc.WriteJSONBytes(w, []byte(large))
		case "close":
			w.Header().Set("Connection", "close")
			return httpsvc.WriteJSONBytes(w, []byte(`{"found":false}`))
		case "400":
			return httpsvc.BadRequest("budget must be positive")
		case "500":
			return errors.New("the replica failed")
		}
		return nil // empty
	})
	svc.Handle("/sample", http.MethodPost, func(http.ResponseWriter, *http.Request) error { return nil })
	rep := httptest.NewUnstartedServer(svc.Handler()) // /pairsum is not mounted: the mux's 404
	rep.Config.MaxHeaderBytes = 1                     // net/http allows 4 KiB more
	rep.Start()
	defer rep.Close()
	_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}})

	longID := strings.Repeat("i", 8<<10)
	for _, tc := range []struct {
		target, requestID, framing string
		status                     int
	}{
		{"/route?source=1&dest=2&shape=small", "", "length", 200},
		{"/route?source=1&dest=2&shape=large", "", "chunked", 200},
		{"/route?source=1&dest=2&shape=empty", "", "length", 200},
		{"/route?source=1&dest=2&shape=400", "", "length", 400},
		{"/pairsum?first=1&second=2", "", "length", 404},
		{"/sample?n=1", "", "length", 405},
		{"/route?source=1&dest=2&shape=500", "", "length", 500},
		{"/route?source=1&dest=2&shape=close", "", "close", 200},
		{"/route?source=1&dest=2&shape=small", longID, "eof", 431},
	} {
		get := func(url string) (*http.Response, []byte) {
			t.Helper()
			req, err := http.NewRequest(http.MethodGet, url, nil)
			if err != nil {
				t.Fatal(err)
			}
			if tc.requestID != "" {
				req.Header.Set("X-Request-ID", tc.requestID)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			body, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			return resp, body
		}
		direct, want := get(rep.URL + tc.target)
		framing := "length"
		switch {
		case len(direct.TransferEncoding) > 0:
			framing = "chunked"
		case direct.ContentLength < 0:
			framing = "eof"
		case direct.Close:
			framing = "close"
		}
		if direct.StatusCode != tc.status || framing != tc.framing {
			t.Fatalf("%s: the replica answered %d framed by %s, want %d by %s", tc.target, direct.StatusCode, framing, tc.status, tc.framing)
		}
		if direct.Header.Get("X-Replica") == "" {
			direct.Header.Set("X-Replica", "r1") // the gateway names a replica that did not
		}
		via, got := get(base + tc.target)
		for _, key := range []string{"Content-Type", "X-Cache", "X-Replica"} {
			if via.Header.Get(key) != direct.Header.Get(key) {
				t.Errorf("%s: %s %q through the gateway, %q from the replica", tc.target, key, via.Header.Get(key), direct.Header.Get(key))
			}
		}
		if via.StatusCode != direct.StatusCode || !bytes.Equal(got, want) {
			t.Errorf("%s: %d %q through the gateway, %d %q from the replica", tc.target, via.StatusCode, got, direct.StatusCode, want)
		}
	}
	if status, states, failovers := fleetStates(t, base); status != "ok" || states["r1"] != "healthy" || failovers["r1"] != 0 {
		t.Errorf("after every answer shape: fleet %q, replica %q with %d failovers; want ok, healthy, 0", status, states["r1"], failovers["r1"])
	}
}

// TestConnectionCloseIsNotReused: an answer that carries
// "Connection: close" ends its connection, so every request opens one,
// even from a replica that leaves the connection open.
func TestConnectionCloseIsNotReused(t *testing.T) {
	url, requests, conns := rawReplica(t, "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: 14\r\n\r\n"+`{"found":true}`)
	_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: url}}})
	<-requests // the first probe's
	const n = 4
	for i := 0; i < n; i++ {
		resp, err := http.Get(base + "/route?source=1&dest=2&budget=5")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		<-requests
	}
	if got := conns.Load(); got != n+1 {
		t.Errorf("a probe and %d requests answered with Connection: close came on %d connections, want %d", n, got, n+1)
	}
}

// lockedBuffer is a log sink the prober's goroutine and the test share.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestProbeLoopSurvivesAPanic: a probe round that panics is logged and
// the prober keeps its schedule, so the next rounds still probe.
func TestProbeLoopSurvivesAPanic(t *testing.T) {
	var probes atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		probes.Add(1)
		fmt.Fprint(w, `{"status":"ok","model_epoch":1,"replica":"r1"}`)
	})
	rep := httptest.NewServer(mux)
	defer rep.Close()
	var logs lockedBuffer
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: rep.URL}}, ProbeInterval: 5 * time.Millisecond, LogW: &logs})
	if err != nil {
		t.Fatal(err)
	}
	var rounds atomic.Int64
	gw.beforeProbeRound = func() {
		if rounds.Add(1) == 1 {
			panic("injected probe-round fault")
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gw.Start(ctx) // its synchronous round is probe 1
	deadline := time.Now().Add(5 * time.Second)
	for probes.Load() < 4 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := probes.Load(); n < 4 {
		t.Fatalf("%d probes in 5s after a probe round panicked, want the prober to keep probing", n)
	}
	if !strings.Contains(logs.String(), "probe round panicked: injected probe-round fault") {
		t.Errorf("the panic was not logged: %q", logs.String())
	}
}

// replicaView is what the gateway reads of one replica answer, by
// net/http's rules or by the fleet client's.
type replicaView struct {
	status                      int
	contentType, cache, replica string
	chunked                     bool
	length                      int64 // -1: to the connection's end
	close                       bool
}

// firstValue is the value the gateway relays of a header: the first,
// unless it is empty.
func firstValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// oneValue is the relayed value of a fleet answer's header.
func oneValue(v []string) string {
	if v == nil {
		return ""
	}
	return v[0]
}

// viewOf is what the fleet client read of an answer's head.
func viewOf(resp *response) replicaView {
	v := replicaView{
		status:      resp.status,
		contentType: oneValue(resp.contentType),
		cache:       oneValue(resp.cache),
		replica:     oneValue(resp.replica),
		close:       !resp.keep,
	}
	switch {
	case resp.body == http.NoBody:
	case resp.body == &resp.c.chunked:
		v.chunked, v.length = true, -1
	case resp.c.fixed.toEOF():
		v.length = -1
	default:
		v.length = resp.c.fixed.n
	}
	return v
}

// fleetReadAnswer reads an answer with the fleet client's reader, off a
// connection that is only its bytes.
func fleetReadAnswer(data []byte) (*response, error) {
	c := &fleetConn{pool: &connPool{replica: []string{"r1"}}, br: bufio.NewReaderSize(bytes.NewReader(data), connBufSize)}
	c.fixed.c, c.chunked.c = c, c
	if err := c.readAnswer(); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// refusedAnswers are answers net/http reads but a replica's net/http
// server never writes to the gateway's requests: the fleet client
// refuses each as a replica fault.
var refusedAnswers = []string{
	"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 204 No Content\r\nX-Cache: miss\r\n\r\n",
	"HTTP/1.1 404 Not Found\r\nX-Cache: hit\r\n  folded\r\nContent-Type: text/plain;\r\n\tcharset=utf-8\r\nContent-Length: 3\r\n\r\nnot",
	"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5 \r\nx-replica: r2\r\n\r\nhello",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: CHUNKED\r\n\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nConnection: keep-alive\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nBad Key: 1\r\nContent-Length: 2\r\n\r\nok",
	"HTTP/1.1 200 OK\r\nX-Cache: hit\r\nX-Cache: miss\r\nContent-Length: 2\r\n\r\nok",
}

// refusedBodies are chunked bodies net/http reads but a replica's
// net/http server never writes: a chunk extension and a trailer.
var refusedBodies = []string{
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2;ext=1\r\nok\r\n0\r\n\r\n",
	"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nTrailer: X-Sum\r\n\r\n2\r\nok\r\n0\r\nX-Sum: 7\r\n\r\n",
}

// TestOutOfDialectAnswersRefused: every answer outside the dialect a
// replica writes is refused, its head or its body, though net/http
// reads it.
func TestOutOfDialectAnswersRefused(t *testing.T) {
	for _, data := range refusedAnswers {
		if _, err := http.ReadResponse(bufio.NewReader(strings.NewReader(data)), nil); err != nil {
			t.Errorf("%q: net/http refuses it too (%v); it shows nothing", data, err)
		}
		if resp, err := fleetReadAnswer([]byte(data)); err == nil {
			t.Errorf("%q: the fleet client accepted status %d", data, resp.status)
		}
	}
	for _, data := range refusedBodies {
		resp, err := fleetReadAnswer([]byte(data))
		if err != nil {
			t.Fatalf("%q: head refused: %v", data, err)
		}
		if body, err := io.ReadAll(resp.body); err == nil {
			t.Errorf("%q: the fleet client read the body %q", data, body)
		}
	}
}

// FuzzReadReplicaResponse holds what the fleet client's answer reader
// accepts to net/http on arbitrary bytes. For any input the head and
// body readers never panic and allocate in proportion to the input at
// most, and the body reads the same through Read as through WriteTo.
// For every input the client accepts, net/http.ReadResponse accepts it
// too, and both agree on the status, the relayed Content-Type, X-Cache
// and X-Replica values, the framing (chunked, a length, or to the
// connection's end) and whether the connection closes after it; where
// the client reads the body through, net/http reads the same bytes.
// The converse does not hold: the client refuses much that net/http
// reads (TestOutOfDialectAnswersRefused), and TestFleetAnswersAccepted
// holds it to every answer a replica writes.
func FuzzReadReplicaResponse(f *testing.F) {
	for _, seed := range append([]string{
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Cache: hit\r\nX-Replica: r1\r\nContent-Length: 14\r\n\r\n{\"found\":true}",
		"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n" +
			"d\r\n{\"results\":[]\r\n13\r\n,\"cache_hits\":0}\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nuntil the end",
		"HTTP/1.1 431 Request Header Fields Too Large\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n431 Request Header Fields Too Large",
		"HTTP/1.1 204 No Content\r\nX-Cache: miss\r\n\r\n",
		"HTTP/1.1 200 OK\r\nX-Replica: " + strings.Repeat("r", maxHeadBytes) + "\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 502 Bad Gateway\r\nContent-Length: 10\r\n\r\nshort",
	}, append(refusedAnswers, refusedBodies...)...) {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var (
			resp                *response
			err                 error
			got                 replicaView
			viaRead, viaWriteTo bytes.Buffer
			readErr, writeToErr error
		)
		alloc := allocated(func() {
			if resp, err = fleetReadAnswer(data); err == nil {
				got = viewOf(resp)
				_, readErr = viaRead.ReadFrom(struct{ io.Reader }{resp.body})
			}
			if again, err := fleetReadAnswer(data); err == nil {
				_, writeToErr = again.body.(io.WriterTo).WriteTo(&viaWriteTo)
			}
		})
		if !israce.Enabled && alloc > 16*uint64(len(data))+64<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), alloc)
		}
		if err != nil {
			return
		}
		if (readErr == nil) != (writeToErr == nil) || !bytes.Equal(viaRead.Bytes(), viaWriteTo.Bytes()) {
			t.Fatalf("%q: Read gives %q (%v), WriteTo %q (%v)", data, viaRead.Bytes(), readErr, viaWriteTo.Bytes(), writeToErr)
		}

		std, serr := http.ReadResponse(bufio.NewReader(bytes.NewReader(data)), nil)
		if serr != nil {
			t.Fatalf("%q: the fleet client reads status %d, net/http fails: %v", data, got.status, serr)
		}
		bodyless := std.StatusCode == http.StatusNoContent || std.StatusCode == http.StatusNotModified
		want := replicaView{
			status:      std.StatusCode,
			contentType: firstValue(std.Header, "Content-Type"),
			cache:       firstValue(std.Header, "X-Cache"),
			replica:     firstValue(std.Header, "X-Replica"),
			chunked:     len(std.TransferEncoding) > 0 && !bodyless,
			length:      std.ContentLength,
			close:       std.Close,
		}
		if want.chunked {
			want.length = -1
		}
		if got != want {
			t.Fatalf("%q: the fleet client reads %+v, net/http %+v", data, got, want)
		}
		stdBody, berr := io.ReadAll(std.Body)
		if readErr == nil && (berr != nil || !bytes.Equal(stdBody, viaRead.Bytes())) {
			t.Fatalf("%q: the fleet client reads body %q, net/http %q (%v)", data, viaRead.Bytes(), stdBody, berr)
		}
	})
}

// rawReplica is a replica that is only a TCP listener: it records each
// request it reads, head and Content-Length body as they arrived on the
// wire, answers every one with answer and never closes a connection
// first. conns counts the connections it accepted.
func rawReplica(t *testing.T, answer string) (url string, requests <-chan string, conns *atomic.Int64) {
	return rawReplicaFunc(t, func(w io.Writer, _ string) { io.WriteString(w, answer) })
}

// rawReplicaFunc is rawReplica answering each request with what answer
// writes, given the request as it arrived.
func rawReplicaFunc(t *testing.T, answer func(w io.Writer, request string)) (url string, requests <-chan string, conns *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	seen := make(chan string, 16)
	conns = new(atomic.Int64)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				for {
					var raw bytes.Buffer
					length := 0
					for {
						line, err := br.ReadString('\n')
						if err != nil {
							return
						}
						raw.WriteString(line)
						if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
							fmt.Sscan(v, &length)
						}
						if line == "\r\n" {
							break
						}
					}
					body := make([]byte, length)
					if _, err := io.ReadFull(br, body); err != nil {
						return
					}
					raw.Write(body)
					seen <- raw.String()
					answer(conn, raw.String())
				}
			}()
		}
	}()
	return "http://" + ln.Addr().String(), seen, conns
}

// TestUnsolicitedAnswerIsNotRelayed: a replica that writes one answer
// more than it was asked for cannot hand that answer to a later
// request. Each answer names the request line it answers, and the
// replica writes an unsolicited one after it, in the same write or a
// moment later; every GET through the gateway still gets the answer to
// its own request line, and the replica reads every GET. A connection
// whose reader holds bytes past an answer is not parked, and a parked
// one on which bytes arrived is not reused.
func TestUnsolicitedAnswerIsNotRelayed(t *testing.T) {
	frame := func(body string) string {
		return fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	}
	within := func(t *testing.T, what string, ch <-chan string) string {
		t.Helper()
		select {
		case v := <-ch:
			return v
		case <-time.After(5 * time.Second):
			t.Fatalf("no %s in 5s", what)
			return ""
		}
	}
	for _, delay := range []time.Duration{0, 20 * time.Millisecond} {
		t.Run(fmt.Sprintf("after %v", delay), func(t *testing.T) {
			written := make(chan string, 16)
			url, requests, _ := rawReplicaFunc(t, func(w io.Writer, request string) {
				line, _, _ := strings.Cut(request, "\r\n")
				answer := frame(fmt.Sprintf(`{"status":"ok","model_epoch":1,"replica":"r1","answers":%q}`, line))
				extra := frame(`{"unsolicited":true}`)
				if delay == 0 {
					io.WriteString(w, answer+extra)
				} else {
					io.WriteString(w, answer)
					time.Sleep(delay)
					io.WriteString(w, extra)
				}
				written <- line
			})
			_, base := startGateway(t, Config{Replicas: []Replica{{ID: "r1", URL: url}}})
			within(t, "probe", requests)
			within(t, "unsolicited answer to the probe", written)
			for i := 0; i < 4; i++ {
				target := fmt.Sprintf("/route?source=%d&dest=2&budget=5", i)
				resp, err := http.Get(base + target)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := fmt.Sprintf(`"answers":"GET %s HTTP/1.1"`, target)
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), want) {
					t.Fatalf("GET %s: status %d body %s, want the answer to its own request", target, resp.StatusCode, body)
				}
				if got := within(t, "GET at the replica", requests); !strings.HasPrefix(got, "GET "+target+" ") {
					t.Fatalf("the replica read %q, want GET %s", got, target)
				}
				within(t, "unsolicited answer", written)
			}
		})
	}
}

// TestRequestBytesMatchNetHTTP: a replica receives from the fleet
// client the bytes net/http's Transport sent it, less the User-Agent
// line: a proxied GET with the client's identity headers, and a
// sub-batch under its own Content-Type.
func TestRequestBytesMatchNetHTTP(t *testing.T) {
	answer := `{"results":[{"found":true}],"cache_hits":1}`
	url, requests, _ := rawReplica(t, fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(answer), answer))
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: url}}})
	if err != nil {
		t.Fatal(err)
	}
	h := gw.Handler()
	identity := func(r *http.Request) {
		r.Header.Set("X-Request-ID", "req-7")
		r.Header.Set("Accept", "application/json")
		r.Header.Set("Traceparent", "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00")
	}
	netHTTP := func(method, target string, body []byte) string {
		r, err := http.NewRequest(method, url+target, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		identity(r)
		if body != nil {
			r.Header.Set("Content-Type", "application/json")
		} else {
			r.Body = nil
		}
		var b bytes.Buffer
		if err := r.Write(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Replace(b.String(), "User-Agent: Go-http-client/1.1\r\n", "", 1)
	}

	in := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=5", nil)
	identity(in)
	h.ServeHTTP(httptest.NewRecorder(), in)
	if got, want := <-requests, netHTTP(http.MethodGet, "/route?source=1&dest=2&budget=5", nil); got != want {
		t.Errorf("proxied GET on the wire:\n%q\nnet/http sent:\n%q", got, want)
	}

	in = httptest.NewRequest(http.MethodPost, "/route/batch", strings.NewReader(`{"queries":[ {"source":1,"dest":2,"budget_s":5} ]}`))
	identity(in)
	in.Header.Set("Content-Type", "text/plain")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, in)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch answered %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got, want := <-requests, netHTTP(http.MethodPost, "/route/batch", []byte(`{"queries":[{"source":1,"dest":2,"budget_s":5}]}`)); got != want {
		t.Errorf("sub-batch on the wire:\n%q\nnet/http sent:\n%q", got, want)
	}
}

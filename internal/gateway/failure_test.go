package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"stochroute/internal/obs"
)

// fakeReplica is a minimal stand-in for cmd/serve: a /healthz that
// reports a configurable identity and a /route (plus /route/batch)
// that answers after an optional delay. It lets failure-classification
// tests run without training a model.
func fakeReplica(t *testing.T, reportID string, routeDelay time.Duration) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"status":"ok","degraded":false,"model_epoch":1,"replica":%q}`, reportID)
	})
	wait := func(r *http.Request) bool {
		select {
		case <-r.Context().Done():
			return false
		case <-time.After(routeDelay):
			return true
		}
	}
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		if !wait(r) {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"found":true}`)
	})
	mux.HandleFunc("/route/batch", func(w http.ResponseWriter, r *http.Request) {
		// Read the body before sleeping: the server only watches for a
		// client disconnect (canceling r.Context()) once the request
		// body is consumed.
		var req struct {
			Queries []json.RawMessage `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			w.WriteHeader(http.StatusBadRequest)
			return
		}
		if !wait(r) {
			return
		}
		results := make([]json.RawMessage, len(req.Queries))
		for i := range results {
			results[i] = json.RawMessage(`{"found":true}`)
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{"results": results})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// startGateway builds a gateway over the given fleet, runs the
// synchronous probe round, and serves it from an httptest server.
func startGateway(t *testing.T, cfg Config) (*Gateway, string) {
	t.Helper()
	if cfg.ProbeInterval == 0 {
		// Keep the background prober out of the way: these tests assert
		// on request-path state transitions, not probe recovery.
		cfg.ProbeInterval = time.Hour
	}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(func() { ts.Close(); cancel() })
	return gw, ts.URL
}

func fleetStates(t *testing.T, baseURL string) (status string, states map[string]string, failovers map[string]uint64) {
	t.Helper()
	resp, err := http.Get(baseURL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Status   string `json:"status"`
		Replicas []struct {
			ID        string `json:"id"`
			State     string `json:"state"`
			Failovers uint64 `json:"failovers"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	states = make(map[string]string)
	failovers = make(map[string]uint64)
	for _, r := range v.Replicas {
		states[r.ID] = r.State
		failovers[r.ID] = r.Failovers
	}
	return v.Status, states, failovers
}

// TestClientCancelDoesNotDownReplicas is the cascade regression: a
// client disconnecting mid-query (its request context canceled) must
// not mark the dispatched-to replica down — and, transitively, must
// not retry the dead context against every survivor until the whole
// fleet is down. One canceled client call leaves fleet state and the
// failover counters untouched.
func TestClientCancelDoesNotDownReplicas(t *testing.T) {
	r1 := fakeReplica(t, "r1", 30*time.Second) // slow enough that the client always gives up first
	r2 := fakeReplica(t, "r2", 30*time.Second)
	_, base := startGateway(t, Config{
		Replicas: []Replica{{ID: "r1", URL: r1.URL}, {ID: "r2", URL: r2.URL}},
	})

	do := func(method, url string, body string) error {
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		var rd *strings.Reader
		if body == "" {
			rd = strings.NewReader("")
		} else {
			rd = strings.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, url, rd)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		return err
	}
	// The keyed path and the scatter/gather path both hit the guard.
	if err := do(http.MethodGet, base+"/route?source=1&dest=2&budget=5", ""); err == nil {
		t.Fatal("canceled /route unexpectedly completed")
	}
	if err := do(http.MethodPost, base+"/route/batch", `{"queries":[{"source":1,"dest":2,"budget_s":5}]}`); err == nil {
		t.Fatal("canceled /route/batch unexpectedly completed")
	}

	status, states, failovers := fleetStates(t, base)
	if status != "ok" {
		t.Errorf("fleet status %q after client cancels, want ok", status)
	}
	for id, st := range states {
		if st != "healthy" {
			t.Errorf("replica %s state %q after a client cancel, want healthy", id, st)
		}
		if failovers[id] != 0 {
			t.Errorf("replica %s recorded %d failovers off a client cancel", id, failovers[id])
		}
	}
}

// TestDispatchTimeoutDoesNotDownReplica: one slow query hitting
// RequestTimeout answers 504 but leaves the replica's state to the
// prober — a single pathological query must not evict a replica that
// still answers its health checks.
func TestDispatchTimeoutDoesNotDownReplica(t *testing.T) {
	r1 := fakeReplica(t, "r1", 2*time.Second)
	_, base := startGateway(t, Config{
		Replicas:       []Replica{{ID: "r1", URL: r1.URL}},
		RequestTimeout: 100 * time.Millisecond,
	})
	resp, err := http.Get(base + "/route?source=1&dest=2&budget=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("slow dispatch answered %d, want %d", resp.StatusCode, http.StatusGatewayTimeout)
	}
	_, states, failovers := fleetStates(t, base)
	if states["r1"] != "healthy" {
		t.Errorf("replica state %q after one slow query, want healthy", states["r1"])
	}
	if failovers["r1"] != 0 {
		t.Errorf("%d failovers recorded off a per-request timeout", failovers["r1"])
	}
}

// TestIdentityMismatchSurfacesInHealth: a fleet entry whose URL points
// at a replica claiming a different -replica-id is held degraded with
// the reported identity in /healthz — a mis-wired config is operator-
// visible state, not a log line.
func TestIdentityMismatchSurfacesInHealth(t *testing.T) {
	imposter := fakeReplica(t, "rB", 0)
	_, base := startGateway(t, Config{
		Replicas: []Replica{{ID: "rA", URL: imposter.URL}},
	})
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var gh struct {
		Status   string `json:"status"`
		Replicas []struct {
			ID         string `json:"id"`
			State      string `json:"state"`
			ReportedID string `json:"reported_id"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&gh); err != nil {
		t.Fatal(err)
	}
	if gh.Status != "degraded" {
		t.Errorf("fleet status %q with a mis-wired replica, want degraded", gh.Status)
	}
	if len(gh.Replicas) != 1 || gh.Replicas[0].State != "degraded" || gh.Replicas[0].ReportedID != "rB" {
		t.Errorf("mis-wired replica entry = %+v, want state degraded reporting rB", gh.Replicas)
	}
}

// TestIngestQueueByteBound: enqueueing stops at IngestQueueBytes even
// with depth to spare, so a down replica's backlog cannot hold
// IngestQueue×MaxIngestBytes of raw bodies. Workers are never started,
// so nothing drains between posts.
func TestIngestQueueByteBound(t *testing.T) {
	r1 := fakeReplica(t, "r1", 0)
	gw, err := New(Config{
		Replicas:         []Replica{{ID: "r1", URL: r1.URL}},
		MaxIngestBytes:   4096,
		IngestQueueBytes: 8192,
		IngestQueue:      100,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	body := []byte(`{"trajectories":[{"pad":"` + strings.Repeat("x", 3000) + `"}]}`)
	post := func() (*http.Response, error) {
		return http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	}
	for i := 0; i < 2; i++ {
		resp, err := post()
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Enqueued int `json:"enqueued"`
			Dropped  int `json:"dropped"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ack.Enqueued != 1 || ack.Dropped != 0 {
			t.Fatalf("post %d: ack %+v, want enqueued", i, ack)
		}
	}
	// 2×len(body) queued; a third would cross 8192.
	resp, err := post()
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post past the byte budget answered %d, want 503", resp.StatusCode)
	}
	if got := gw.reps[0].queuedBytes.Load(); got != 2*int64(len(body)) {
		t.Errorf("queuedBytes = %d, want %d (the dropped body must roll its reservation back)", got, 2*len(body))
	}
}

// TestDebugTracesHugeN: the count cap is clamped before preallocation,
// so ?n=1e9 cannot ask the allocator for gigabytes.
func TestDebugTracesHugeN(t *testing.T) {
	r1 := fakeReplica(t, "r1", 0)
	_, base := startGateway(t, Config{
		Replicas: []Replica{{ID: "r1", URL: r1.URL}},
		Tracer:   obs.NewTracer(obs.NewSpanStore(8, 0), 1),
	})
	resp, err := http.Get(base + "/debug/traces?n=1000000000")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/traces?n=1e9 answered %d, want 200", resp.StatusCode)
	}
}

// TestRelayAbortMidBody: a replica dying after its status line is on
// the wire must not append a JSON error to the partial body (the
// superfluous-WriteHeader path) — and the failure is charged to the
// replica's error counter.
func TestRelayAbortMidBody(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ok","degraded":false,"model_epoch":1,"replica":"r1"}`)
	})
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "4096")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // the replica dies mid-body
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	var logbuf bytes.Buffer
	gw, base := startGateway(t, Config{
		Replicas: []Replica{{ID: "r1", URL: ts.URL}},
		LogW:     &logbuf,
	})
	resp, err := http.Get(base + "/route?source=1&dest=2&budget=5")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 8192)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mid-body death changed the already-sent status to %d", resp.StatusCode)
	}
	if got := string(body[:n]); strings.Contains(got, `"error"`) {
		t.Errorf("JSON error appended to a partial body: %q", got)
	}
	if !strings.Contains(logbuf.String(), "aborted mid-body") {
		t.Errorf("relay abort was not logged: %q", logbuf.String())
	}
	if errs := gw.reps[0].errors.Value(); errs == 0 {
		t.Error("mid-body replica death not counted as a replica error")
	}
}

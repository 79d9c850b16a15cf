package stochroute

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/gateway"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/replay"
	"stochroute/internal/routing"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// --- fleet substrate --------------------------------------------------
//
// One synthetic world, trained once per test binary. Each replica
// deserializes its own copy of the model set (AttachKB mutates the
// set, so replicas must not share one) and rebuilds the knowledge base
// from the same trajectories — the exact serving path cmd/serve takes
// in artifact mode, and the construction that makes every replica
// bit-identical to its peers.

var fleetOnce sync.Once
var fleetBase struct {
	cfg      Config
	g        *Graph
	trajs    []Trajectory
	setBytes []byte
	err      error
}

func fleetSubstrate(t *testing.T) (Config, *Graph, []Trajectory, []byte) {
	t.Helper()
	fleetOnce.Do(func() {
		cfg := DefaultConfig()
		cfg.Network.Rows, cfg.Network.Cols = 10, 10
		cfg.Network.CellMeters = 130
		cfg.Walk.NumTrajectories = 1000
		cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 250, 60
		cfg.Hybrid.MinPairObs = 8
		cfg.Hybrid.Estimator.Train.Epochs = 10
		cfg.Hybrid.PrefixRows = 0
		fleetBase.cfg = cfg
		g, err := netgen.Generate(cfg.Network)
		if err != nil {
			fleetBase.err = err
			return
		}
		world, err := traj.NewWorld(g, cfg.World)
		if err != nil {
			fleetBase.err = err
			return
		}
		trajs, err := traj.GenerateTrajectories(world, cfg.Walk)
		if err != nil {
			fleetBase.err = err
			return
		}
		eng, err := NewEngineFromObservations(g, trajs, cfg.Hybrid, io.Discard)
		if err != nil {
			fleetBase.err = err
			return
		}
		var buf bytes.Buffer
		if err := hybrid.WriteModelSet(&buf, eng.ModelSet()); err != nil {
			fleetBase.err = err
			return
		}
		fleetBase.g, fleetBase.trajs, fleetBase.setBytes = g, trajs, buf.Bytes()
	})
	if fleetBase.err != nil {
		t.Fatal(fleetBase.err)
	}
	return fleetBase.cfg, fleetBase.g, fleetBase.trajs, fleetBase.setBytes
}

// killSwitch simulates a hard replica kill at the transport layer:
// while down, every connection is hijacked and closed without a byte
// of response — what a crashed process looks like to the gateway's
// client. Revivable, unlike ts.Close.
type killSwitch struct {
	down atomic.Bool
	next http.Handler
}

func (k *killSwitch) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if k.down.Load() {
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	k.next.ServeHTTP(w, r)
}

type fleetReplica struct {
	id   string
	ts   *httptest.Server
	kill *killSwitch
	eng  *Engine
}

func newFleetReplica(t *testing.T, id string, withIngest bool) *fleetReplica {
	t.Helper()
	cfg, g, trajs, setBytes := fleetSubstrate(t)
	set, err := hybrid.ReadModelSet(bytes.NewReader(setBytes))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithModelSet(g, trajs, cfg.Hybrid.Width, cfg.Hybrid.MinPairObs, set)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	var ing *ingest.Ingestor
	if withIngest {
		retrain := cfg.Hybrid
		retrain.MinPairObs = 6
		retrain.TrainPairs, retrain.TestPairs = 200, 50
		ing = ingest.New(eng, ingest.Config{
			Hybrid:                 retrain,
			Drift:                  ingest.DriftConfig{Window: 250, MinEdgeObs: 6},
			MinRebuildTrajectories: 300,
			Metrics:                reg,
		}, io.Discard)
		// A rebuild still training after the test would allocate inside
		// a later test's allocation count.
		t.Cleanup(ing.WaitRebuilds)
	}
	srv := server.New(eng, server.Config{Metrics: reg, Ingestor: ing, ReplicaID: id})
	ks := &killSwitch{next: srv.Handler()}
	ts := httptest.NewServer(ks)
	t.Cleanup(ts.Close)
	return &fleetReplica{id: id, ts: ts, kill: ks, eng: eng}
}

type testFleet struct {
	gw   *gateway.Gateway
	ts   *httptest.Server
	reps []*fleetReplica
}

func (f *testFleet) replica(id string) *fleetReplica {
	for _, r := range f.reps {
		if r.id == id {
			return r
		}
	}
	return nil
}

func newTestFleet(t *testing.T, n int, withIngest bool, mutate func(*gateway.Config)) *testFleet {
	t.Helper()
	f := &testFleet{}
	entries := make([]gateway.Replica, 0, n)
	for i := 0; i < n; i++ {
		rep := newFleetReplica(t, fmt.Sprintf("r%d", i+1), withIngest)
		f.reps = append(f.reps, rep)
		entries = append(entries, gateway.Replica{ID: rep.id, URL: rep.ts.URL})
	}
	gcfg := gateway.Config{
		Replicas:      entries,
		ProbeInterval: 100 * time.Millisecond,
		ProbeTimeout:  5 * time.Second,
		DownAfter:     2,
		IngestBackoff: 25 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&gcfg)
	}
	gw, err := gateway.New(gcfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	f.gw = gw
	f.ts = httptest.NewServer(gw.Handler())
	t.Cleanup(func() { f.ts.Close(); cancel() })
	return f
}

// gwStatsView decodes the gateway's /stats: replica entries flatten the
// health view and the per-replica counters.
type gwStatsView struct {
	Status   string `json:"status"`
	Replicas []struct {
		ID              string `json:"id"`
		State           string `json:"state"`
		Failovers       uint64 `json:"failovers"`
		IngestEnqueued  uint64 `json:"ingest_enqueued"`
		IngestDelivered uint64 `json:"ingest_delivered"`
		IngestRetries   uint64 `json:"ingest_retries"`
		IngestDropped   uint64 `json:"ingest_dropped"`
		BatchItems      uint64 `json:"batch_items"`
	} `json:"replicas"`
}

func gwStats(t *testing.T, baseURL string) gwStatsView {
	t.Helper()
	var v gwStatsView
	getJSON(t, baseURL+"/stats", &v)
	return v
}

func (v gwStatsView) of(id string) (int, bool) {
	for i, r := range v.Replicas {
		if r.ID == id {
			return i, true
		}
	}
	return 0, false
}

// waitFor polls cond every 25 ms until it holds, failing the test after
// d. Then it waits out the rebuild chain of every ingestor in ings — a
// drift trigger that fires during a rebuild is latched and starts the
// next one — so that the caller reads each view it checks once, from a
// server that is no longer swapping.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool, ings ...*ingest.Ingestor) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(25 * time.Millisecond)
	}
	for _, ing := range ings {
		ing.WaitRebuilds()
	}
}

// getVia fetches url and returns the status code, X-Replica header and
// body.
func getVia(t *testing.T, client *http.Client, url string) (int, string, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("X-Replica"), body
}

// --- the fault-injection e2e -----------------------------------------

// TestGatewayFaultInjectionE2E kills one of three replicas in the
// middle of concurrent query load and requires the outage to be
// invisible to clients: every request throughout the run answers 200
// (in-flight dispatches to the dead replica fail over within the same
// request), the gateway's failover counter and health view record the
// kill, and after revival the replica's probes bring it back and its
// hash range returns to it.
func TestGatewayFaultInjectionE2E(t *testing.T) {
	f := newTestFleet(t, 3, false, nil)
	client := &http.Client{Timeout: 30 * time.Second}

	qs, err := f.reps[0].eng.SampleQueries(0.5, 1.2, 24, 31)
	if err != nil {
		t.Fatal(err)
	}
	urls := make([]string, len(qs))
	for i, q := range qs {
		opt, err := f.reps[0].eng.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		urls[i] = fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f", f.ts.URL, q.Source, q.Dest, 1.6*opt)
	}

	// Baseline pass: every query answers through the gateway, and the
	// X-Replica attribution tells us each key's owner.
	owners := make([]string, len(urls))
	for i, u := range urls {
		code, rep, body := getVia(t, client, u)
		if code != http.StatusOK {
			t.Fatalf("baseline GET %s: status %d: %s", u, code, body)
		}
		if rep == "" {
			t.Fatalf("baseline GET %s: no X-Replica attribution", u)
		}
		owners[i] = rep
	}
	// Stability: the same key routes to the same replica every time —
	// the cache-locality contract.
	for i, u := range urls {
		if _, rep, _ := getVia(t, client, u); rep != owners[i] {
			t.Fatalf("key %d moved from %s to %s with a healthy fleet", i, owners[i], rep)
		}
	}

	// The victim: the replica owning the most keys, so the kill
	// actually disrupts routed load.
	counts := map[string]int{}
	for _, o := range owners {
		counts[o]++
	}
	victimID := ""
	for id, c := range counts {
		if victimID == "" || c > counts[victimID] {
			victimID = id
		}
	}
	victim := f.replica(victimID)
	if victim == nil {
		t.Fatalf("owner %q is not a fleet replica", victimID)
	}

	// Concurrent load for the whole scenario: 4 workers, every request
	// must answer 200 no matter what happens to the victim.
	stop := make(chan struct{})
	qerrs := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &http.Client{Timeout: 30 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[(w+i)%len(urls)]
				resp, err := c.Get(u)
				if err != nil {
					qerrs <- fmt.Errorf("worker %d: %v", w, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					qerrs <- fmt.Errorf("worker %d: status %d", w, resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Let the load establish, then kill the victim mid-flight.
	time.Sleep(200 * time.Millisecond)
	victim.kill.down.Store(true)
	waitFor(t, 10*time.Second, "gateway to mark the victim down", func() bool {
		st := gwStats(t, f.ts.URL)
		i, ok := st.of(victimID)
		return ok && st.Replicas[i].State == "down"
	})

	// While down: every key the victim owned answers from a survivor.
	for i, u := range urls {
		if owners[i] != victimID {
			continue
		}
		code, rep, body := getVia(t, client, u)
		if code != http.StatusOK {
			t.Fatalf("victim-owned key %d during outage: status %d: %s", i, code, body)
		}
		if rep == victimID {
			t.Fatalf("victim-owned key %d still attributed to dead replica %s", i, victimID)
		}
	}
	st := gwStats(t, f.ts.URL)
	if st.Status != "degraded" {
		t.Errorf("fleet status %q with one replica down, want degraded", st.Status)
	}
	if i, ok := st.of(victimID); !ok || st.Replicas[i].Failovers == 0 {
		t.Error("failover counter never incremented for the killed replica")
	}

	// Revive: probes must reclaim the replica and its hash range.
	victim.kill.down.Store(false)
	waitFor(t, 10*time.Second, "the revived replica to turn healthy", func() bool {
		st := gwStats(t, f.ts.URL)
		i, ok := st.of(victimID)
		return ok && st.Replicas[i].State == "healthy"
	})
	for i, u := range urls {
		if owners[i] != victimID {
			continue
		}
		code, rep, _ := getVia(t, client, u)
		if code != http.StatusOK || rep != victimID {
			t.Fatalf("key %d not reclaimed after revival: status %d, replica %q (want %s)", i, code, rep, victimID)
		}
	}
	// And the survivors' keys never moved through the whole episode.
	for i, u := range urls {
		if owners[i] == victimID {
			continue
		}
		if _, rep, _ := getVia(t, client, u); rep != owners[i] {
			t.Errorf("survivor-owned key %d moved from %s to %s across the outage", i, owners[i], rep)
		}
	}

	close(stop)
	wg.Wait()
	close(qerrs)
	for err := range qerrs {
		t.Error(err)
	}

	// The gateway's /metrics exposition carries the episode: the victim
	// flapped its healthy gauge back to 1, and failovers are visible as
	// a per-replica series.
	samples := scrapeSamples(t, f.ts.URL+"/metrics")
	find := func(name, replica string) (float64, bool) {
		for _, s := range samples {
			if s.Name == name && s.Label("replica") == replica {
				return s.Value, true
			}
		}
		return 0, false
	}
	if v, ok := find("gateway_replica_healthy", victimID); !ok || v != 1 {
		t.Errorf("gateway_replica_healthy{replica=%q} = %v, %v — want 1 after revival", victimID, v, ok)
	}
	if v, ok := find("gateway_failovers_total", victimID); !ok || v == 0 {
		t.Errorf("gateway_failovers_total{replica=%q} = %v, %v — want > 0", victimID, v, ok)
	}

	// When GATEWAY_METRICS_OUT is set, the post-episode gateway scrape
	// is written there (CI uploads it as a build artifact, mirroring the
	// METRICS_SCRAPE_OUT idiom of the single-replica exposition test),
	// so reviewers see the fleet series a PR adds or renames.
	if out := os.Getenv("GATEWAY_METRICS_OUT"); out != "" {
		resp, err := client.Get(f.ts.URL + "/metrics")
		if err != nil {
			t.Fatalf("scraping gateway metrics for artifact: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading gateway metrics artifact: %v", err)
		}
		if err := os.WriteFile(out, body, 0o644); err != nil {
			t.Fatalf("writing gateway metrics artifact: %v", err)
		}
	}
}

// --- scatter/gather bit-identity -------------------------------------

// TestGatewayScatterGatherBitIdentity proves the gather step's central
// claim: a mixed batch through the gateway returns, per item, the
// exact bytes a single replica would have produced — same order, same
// route, same probabilities, same distribution-derived values, same
// epoch — with only the replica attribution added. Runs its batches
// concurrently so -race covers the scatter path.
func TestGatewayScatterGatherBitIdentity(t *testing.T) {
	f := newTestFleet(t, 3, false, nil)
	solo := newFleetReplica(t, "solo", false)

	qs, err := solo.eng.SampleQueries(0.4, 1.4, 36, 17)
	if err != nil {
		t.Fatal(err)
	}
	type bq struct {
		Source int     `json:"source"`
		Dest   int     `json:"dest"`
		Budget float64 `json:"budget_s"`
	}
	items := make([]bq, 0, len(qs))
	seen := map[[2]int]bool{}
	for _, q := range qs {
		pair := [2]int{int(q.Source), int(q.Dest)}
		if seen[pair] {
			continue // a duplicate pair would be a cache hit on one side only
		}
		seen[pair] = true
		opt, err := solo.eng.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, bq{Source: int(q.Source), Dest: int(q.Dest), Budget: 1.5 * opt})
	}
	if len(items) < 12 {
		t.Fatalf("only %d distinct pairs sampled", len(items))
	}

	// Disjoint sub-batches, posted concurrently: each goroutine compares
	// the gateway's answer for its batch with the standalone replica's
	// answer for the identical batch. Disjoint queries keep both sides'
	// caches cold for every item.
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)
	attributed := make(chan string, len(items))
	for w := 0; w < workers; w++ {
		chunk := items[w*len(items)/workers : (w+1)*len(items)/workers]
		if len(chunk) == 0 {
			continue
		}
		wg.Add(1)
		go func(chunk []bq) {
			defer wg.Done()
			body, err := json.Marshal(map[string]any{"queries": chunk})
			if err != nil {
				errs <- err
				return
			}
			post := func(base string) ([]json.RawMessage, error) {
				resp, err := http.Post(base+"/route/batch", "application/json", bytes.NewReader(body))
				if err != nil {
					return nil, err
				}
				defer resp.Body.Close()
				raw, err := io.ReadAll(resp.Body)
				if err != nil {
					return nil, err
				}
				if resp.StatusCode != http.StatusOK {
					return nil, fmt.Errorf("%s/route/batch: status %d: %s", base, resp.StatusCode, raw)
				}
				var out struct {
					Results []json.RawMessage `json:"results"`
				}
				if err := json.Unmarshal(raw, &out); err != nil {
					return nil, err
				}
				return out.Results, nil
			}
			got, err := post(f.ts.URL)
			if err != nil {
				errs <- err
				return
			}
			want, err := post(solo.ts.URL)
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(chunk) || len(want) != len(chunk) {
				errs <- fmt.Errorf("result counts: gateway %d, solo %d, batch %d", len(got), len(want), len(chunk))
				return
			}
			for i := range got {
				var attr struct {
					Replica string `json:"replica"`
					Found   bool   `json:"found"`
				}
				if err := json.Unmarshal(got[i], &attr); err != nil {
					errs <- fmt.Errorf("item %d does not parse: %v", i, err)
					return
				}
				if attr.Replica == "" {
					errs <- fmt.Errorf("item %d has no replica attribution: %s", i, got[i])
					return
				}
				attributed <- attr.Replica
				stripped := bytes.Replace(got[i],
					[]byte(`"replica":"`+attr.Replica+`",`), nil, 1)
				if !bytes.Equal(stripped, want[i]) {
					errs <- fmt.Errorf("item %d differs from single-replica answer:\n gateway: %s\n    solo: %s", i, stripped, want[i])
					return
				}
			}
		}(chunk)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	close(attributed)
	dist := map[string]int{}
	for id := range attributed {
		dist[id]++
	}
	if len(dist) < 2 {
		t.Errorf("all batch items landed on %v — the scatter never split the batch", dist)
	}

	// Co-location: a batch item and the equivalent single query route to
	// the same replica, so both warm the same cache.
	for _, it := range items[:4] {
		u := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f", f.ts.URL, it.Source, it.Dest, it.Budget)
		client := &http.Client{Timeout: 30 * time.Second}
		_, rep, _ := getVia(t, client, u)
		body, _ := json.Marshal(map[string]any{"queries": []bq{it}})
		resp, err := http.Post(f.ts.URL+"/route/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Results []struct {
				Replica string `json:"replica"`
			} `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if len(out.Results) != 1 || out.Results[0].Replica != rep {
			t.Errorf("pair (%d,%d): single query on %s, batch item on %v — keys must co-locate",
				it.Source, it.Dest, rep, out.Results)
		}
	}
}

// poisonedBackend is a replica engine with one (source, dest) pair
// poisoned: a batch item for the pair gets a potential source that
// panics, so the engine's per-item recover is what answers it.
type poisonedBackend struct {
	*Engine
	source, dest VertexID
}

func (b poisonedBackend) RouteBatch(ctx context.Context, queries []BatchQuery, workers int) []routing.BatchItem {
	for i := range queries {
		if queries[i].Source == b.source && queries[i].Dest == b.dest {
			queries[i].Opts.Potentials = panicPotentials{dest: b.dest}
		}
	}
	return b.Engine.RouteBatch(ctx, queries, workers)
}

// TestGatewayBatchPanickingItemE2E sends /route/batch through the
// gateway to a real replica whose engine panics on one item. The
// answer is a 200; every item, the panicking one's "error" included,
// is the replica's own bytes with "replica" spliced in; and every other
// item equals a healthy solo replica's answer once "replica" is
// stripped.
func TestGatewayBatchPanickingItemE2E(t *testing.T) {
	cfg, g, trajs, setBytes := fleetSubstrate(t)
	set, err := hybrid.ReadModelSet(bytes.NewReader(setBytes))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngineWithModelSet(g, trajs, cfg.Hybrid.Width, cfg.Hybrid.MinPairObs, set)
	if err != nil {
		t.Fatal(err)
	}
	solo := newFleetReplica(t, "solo", false)

	qs, err := solo.eng.SampleQueries(0.4, 1.4, 12, 23)
	if err != nil {
		t.Fatal(err)
	}
	type bq struct {
		Source int     `json:"source"`
		Dest   int     `json:"dest"`
		Budget float64 `json:"budget_s"`
	}
	var items []bq
	seen := map[[2]int]bool{}
	for _, q := range qs {
		pair := [2]int{int(q.Source), int(q.Dest)}
		if seen[pair] {
			continue
		}
		seen[pair] = true
		opt, err := solo.eng.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		items = append(items, bq{Source: pair[0], Dest: pair[1], Budget: 1.5 * opt})
	}
	if len(items) < 4 {
		t.Fatalf("only %d distinct pairs sampled", len(items))
	}
	poisoned := len(items) / 2
	bad := items[poisoned]

	// The replica behind the gateway records its own /route/batch answer.
	srv := server.New(poisonedBackend{Engine: eng, source: VertexID(bad.Source), dest: VertexID(bad.Dest)},
		server.Config{ReplicaID: "r1"})
	var own atomic.Value
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		if r.URL.Path == "/route/batch" {
			own.Store(rec.Body.Bytes())
		}
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(rec.Body.Bytes())
	}))
	defer rep.Close()
	gw, err := gateway.New(gateway.Config{Replicas: []gateway.Replica{{ID: "r1", URL: rep.URL}}, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gw.Start(ctx)
	front := httptest.NewServer(gw.Handler())
	defer front.Close()

	body, err := json.Marshal(map[string]any{"queries": items})
	if err != nil {
		t.Fatal(err)
	}
	results := func(base string) []json.RawMessage {
		t.Helper()
		resp, err := http.Post(base+"/route/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s/route/batch: status %d: %s", base, resp.StatusCode, raw)
		}
		return resultsOf(t, raw, len(items))
	}
	got := results(front.URL)
	want := results(solo.ts.URL)
	ownBytes, _ := own.Load().([]byte)
	mine := resultsOf(t, ownBytes, len(items))

	wantErr, err := json.Marshal(fmt.Sprintf("stochroute: batch item %d panicked: poisoned destination %d", poisoned, bad.Dest))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		stripped := bytes.Replace(got[i], []byte(`"replica":"r1",`), nil, 1)
		if !bytes.Equal(stripped, mine[i]) {
			t.Errorf("item %d is not the replica's bytes:\n gateway: %s\n replica: %s", i, got[i], mine[i])
		}
		hasErr := bytes.Contains(got[i], []byte(`"error":`))
		if i == poisoned {
			if !bytes.HasSuffix(got[i], append(append([]byte(`,"error":`), wantErr...), '}')) {
				t.Errorf("panicking item %d: %s, want its error %s", i, got[i], wantErr)
			}
			continue
		}
		if hasErr || !bytes.Equal(stripped, want[i]) {
			t.Errorf("item %d differs from the solo replica's answer:\n gateway: %s\n    solo: %s", i, got[i], want[i])
		}
	}
}

// resultsOf splits a /route/batch answer into its n results' bytes.
func resultsOf(t *testing.T, doc []byte, n int) []json.RawMessage {
	t.Helper()
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(doc, &out); err != nil || len(out.Results) != n {
		t.Fatalf("answer with %d results wanted, got %v: %.300s", n, err, doc)
	}
	return out.Results
}

// --- ingest fan-out ---------------------------------------------------

// TestGatewayIngestFanoutE2E streams a drifted trajectory set (through
// an SRT2 encode/decode round trip) into the gateway's /ingest while
// one replica is down. Every replica — including the dead one, which
// revives mid-stream and catches up from its retry queue — must see
// the full stream: drift fires and the model epoch advances on all
// three, with zero batches dropped.
func TestGatewayIngestFanoutE2E(t *testing.T) {
	f := newTestFleet(t, 3, true, func(c *gateway.Config) {
		// The dead replica retries for the whole test rather than
		// exhausting a small budget: the scenario under test is catch-up,
		// not drop.
		c.IngestAttempts = 1000
		c.IngestBackoffCap = 250 * time.Millisecond
	})
	cfg, _, _, _ := fleetSubstrate(t)

	// The drifted world: same structure, congestion multipliers doubled
	// (as in the single-replica ingest e2e).
	wcfg := cfg.World
	wcfg.ModeFactors = scaleFactors(wcfg.ModeFactors, 2)
	scaled := make(map[RoadCategory][]float64, len(wcfg.CategoryFactors))
	for cat, fs := range wcfg.CategoryFactors {
		scaled[cat] = scaleFactors(fs, 2)
	}
	wcfg.CategoryFactors = scaled
	shiftedWorld, err := traj.NewWorld(f.reps[0].eng.Graph(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	shiftTrs, err := traj.GenerateTrajectories(shiftedWorld, traj.WalkConfig{
		NumTrajectories: 900, MinEdges: 4, MaxEdges: 14, Seed: 77,
		RouteFraction: 0.5, NumRoutes: 300, RouteJitter: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}

	// SRT2 round trip: what cmd/replay does with a file on disk.
	var srt2 bytes.Buffer
	if err := traj.WriteTrajectories(&srt2, shiftTrs); err != nil {
		t.Fatal(err)
	}
	decoded, err := traj.ReadTrajectoryStream(&srt2, f.reps[0].eng.Graph())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(shiftTrs) {
		t.Fatalf("SRT2 round trip lost trajectories: %d of %d", len(decoded), len(shiftTrs))
	}

	// Kill one replica before the stream starts: its batches queue.
	victim := f.reps[2]
	victim.kill.down.Store(true)

	rep, err := replay.Stream(context.Background(), decoded, replay.Options{
		BaseURL: f.ts.URL,
		Batch:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != len(decoded) || rep.Rejected != 0 {
		t.Fatalf("gateway replay accepted %d / rejected %d of %d", rep.Accepted, rep.Rejected, len(decoded))
	}

	// Revive the victim: its worker drains the queued batches in order.
	victim.kill.down.Store(false)

	// Delivery completes everywhere, with the victim's catch-up visible
	// as retries and zero drops anywhere.
	waitFor(t, 60*time.Second, "every queued batch to be delivered", func() bool {
		st := gwStats(t, f.ts.URL)
		for _, r := range st.Replicas {
			if r.IngestDelivered != r.IngestEnqueued {
				return false
			}
		}
		return true
	})
	st := gwStats(t, f.ts.URL)
	for _, r := range st.Replicas {
		if r.IngestDropped != 0 {
			t.Errorf("replica %s dropped %d ingest batches", r.ID, r.IngestDropped)
		}
		if r.IngestEnqueued == 0 {
			t.Errorf("replica %s never had a batch enqueued", r.ID)
		}
	}
	if i, ok := st.of(victim.id); !ok || st.Replicas[i].IngestRetries == 0 {
		t.Error("the dead replica's catch-up never exercised the retry queue")
	}

	// Every replica's drift monitor fires on the full stream and its
	// background rebuild advances the model epoch — the victim included.
	for _, r := range f.reps {
		r := r
		waitFor(t, 180*time.Second, fmt.Sprintf("replica %s to swap to epoch 2", r.id), func() bool {
			var st statsView
			getJSON(t, r.ts.URL+"/stats", &st)
			return st.ModelEpoch >= 2
		})
		var sv statsView
		getJSON(t, r.ts.URL+"/stats", &sv)
		if sv.Ingest == nil || sv.Ingest.DriftEvents == 0 {
			t.Errorf("replica %s: drift monitor never fired (%+v)", r.id, sv.Ingest)
		}
		if len(sv.SliceEpochs) == 0 || sv.SliceEpochs[0] < 2 {
			t.Errorf("replica %s: slice epoch never advanced: %v", r.id, sv.SliceEpochs)
		}
	}

	// The gateway's own health view converges on the new fleet epoch.
	waitFor(t, 15*time.Second, "gateway health to report the new epochs", func() bool {
		var gh struct {
			Status   string `json:"status"`
			Replicas []struct {
				ModelEpoch uint64 `json:"model_epoch"`
			} `json:"replicas"`
		}
		getJSON(t, f.ts.URL+"/healthz", &gh)
		if gh.Status != "ok" {
			return false
		}
		for _, r := range gh.Replicas {
			if r.ModelEpoch < 2 {
				return false
			}
		}
		return true
	})
}

// TestGatewayHealthzAndIdentity covers the fleet plumbing around the
// scenarios above: the gateway's /healthz aggregates per-replica state,
// replicas report their -replica-id identity, and mis-addressed fleets
// are visible.
func TestGatewayHealthzAndIdentity(t *testing.T) {
	f := newTestFleet(t, 2, false, nil)
	var gh struct {
		Status   string `json:"status"`
		Healthy  int    `json:"healthy"`
		Replicas []struct {
			ID         string `json:"id"`
			State      string `json:"state"`
			ModelEpoch uint64 `json:"model_epoch"`
		} `json:"replicas"`
	}
	getJSON(t, f.ts.URL+"/healthz", &gh)
	if gh.Status != "ok" || gh.Healthy != 2 {
		t.Fatalf("fresh fleet health = %+v", gh)
	}
	for _, r := range gh.Replicas {
		if r.State != "healthy" || r.ModelEpoch != 1 {
			t.Errorf("replica %s: state %s epoch %d, want healthy epoch 1", r.ID, r.State, r.ModelEpoch)
		}
	}
	// The replica's own /healthz carries its identity for the prober.
	var rh struct {
		Replica string `json:"replica"`
	}
	getJSON(t, f.reps[0].ts.URL+"/healthz", &rh)
	if rh.Replica != f.reps[0].id {
		t.Errorf("replica /healthz identity %q, want %q", rh.Replica, f.reps[0].id)
	}
	// Single-query responses carry X-Replica end to end (replica sets
	// it, gateway relays it).
	client := &http.Client{Timeout: 30 * time.Second}
	qs, err := f.reps[0].eng.SampleQueries(0.5, 1.2, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := f.reps[0].eng.OptimisticTime(qs[0].Source, qs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}
	u := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f", f.ts.URL, qs[0].Source, qs[0].Dest, 1.6*opt)
	_, rep, _ := getVia(t, client, u)
	if rep != "r1" && rep != "r2" {
		t.Errorf("X-Replica = %q, want a fleet member", rep)
	}
	// Malformed requests fail at the gateway edge without touching a
	// replica.
	code, _, body := getVia(t, client, f.ts.URL+"/route?source=3")
	if code != http.StatusBadRequest {
		t.Errorf("missing dest: status %d: %s", code, body)
	}
	if !strings.Contains(string(body), "dest") {
		t.Errorf("error does not name the missing parameter: %s", body)
	}
}

package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stochroute/internal/obs"
	"stochroute/internal/par"
)

// ReplicaState is the balancer's three-state view of one replica.
type ReplicaState int32

// The three states. Healthy and Degraded replicas are both routable —
// a degraded replica still answers correctly, knowingly on a stale
// model (its drift monitor fired with no swap since) — while a Down
// replica's hash range fails over to the survivors until its probes
// recover.
const (
	StateHealthy ReplicaState = iota
	StateDegraded
	StateDown
)

// String renders the state for health endpoints and logs.
func (s ReplicaState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// replica is one backend's runtime record: identity, health state, the
// ingest fan-out queue, the probe bookkeeping and its series. State is
// written by the prober goroutine and by request-path failure marking,
// and read by every request — all through atomics.
type replica struct {
	id  string
	url string // normalized base URL, no trailing slash
	// get is the template of every proxied GET: method, host and
	// protocol fields filled in once, URL the parsed base. dispatch
	// derives each request from it and never writes to it.
	get *http.Request
	// idHeader is the X-Replica value slice relayed for a replica that
	// does not name itself; nothing may write through it.
	idHeader []string
	// idJSON is the ID as a JSON string, spliced into each batch result
	// the replica answers.
	idJSON []byte

	state atomic.Int32  // ReplicaState
	fails atomic.Int32  // consecutive probe failures
	epoch atomic.Uint64 // model_epoch from the last successful probe

	// queue holds raw /ingest bodies awaiting delivery; one worker
	// drains it in order (see ingest.go). queuedBytes tracks the bytes
	// those waiting bodies hold, so enqueueing can enforce the
	// Config.IngestQueueBytes memory budget alongside the depth cap.
	queue       chan []byte
	queuedBytes atomic.Int64

	// reportedID holds the identity the replica's own /healthz claims
	// when it disagrees with the fleet config ("" while they agree) —
	// written by the prober, surfaced in the gateway's /healthz.
	reportedID atomic.Value // string
	// downSince is the unix ms of the last down transition (0 = never).
	downSince atomic.Int64

	// The replica's series, registered under its replica label. /stats
	// reads these counters and /metrics renders them, so every dispatch,
	// failover and ingest delivery is counted once.
	requests, errors, failovers, batchItems                       *obs.Counter
	ingestEnqueued, ingestDelivered, ingestRetries, ingestDropped *obs.Counter
	latency                                                       *obs.Histogram
}

// newReplica validates one fleet entry, builds its runtime record and
// registers its series in reg. The health gauges and the queue gauges
// read the record at scrape time.
func newReplica(rc Replica, ingestQueue int, reg *obs.Registry) (*replica, error) {
	base := strings.TrimRight(rc.URL, "/")
	get, err := http.NewRequest(http.MethodGet, base, nil)
	if err != nil {
		return nil, err
	}
	if get.URL.Host == "" {
		return nil, fmt.Errorf("URL %q names no host", rc.URL)
	}
	idJSON, err := json.Marshal(rc.ID)
	if err != nil {
		return nil, err
	}
	l := obs.L("replica", rc.ID)
	r := &replica{
		id:       rc.ID,
		url:      base,
		get:      get,
		idHeader: []string{rc.ID},
		idJSON:   idJSON,
		queue:    make(chan []byte, ingestQueue),
		requests: reg.Counter("gateway_replica_requests_total",
			"Requests the gateway dispatched to the replica.", l),
		errors: reg.Counter("gateway_replica_errors_total",
			"Dispatches to the replica that failed at the transport layer.", l),
		failovers: reg.Counter("gateway_failovers_total",
			"Requests re-routed away from the replica after a dispatch failure or down mark.", l),
		batchItems: reg.Counter("gateway_batch_items_total",
			"Scatter/gather batch items dispatched to the replica.", l),
		ingestEnqueued: reg.Counter("gateway_ingest_enqueued_total",
			"Ingest batches enqueued for delivery to the replica.", l),
		ingestDelivered: reg.Counter("gateway_ingest_delivered_total",
			"Ingest batches delivered to the replica (including after retries).", l),
		ingestRetries: reg.Counter("gateway_ingest_retries_total",
			"Ingest delivery attempts that failed and were retried with backoff.", l),
		ingestDropped: reg.Counter("gateway_ingest_dropped_total",
			"Ingest batches abandoned: queue full at enqueue or retry budget exhausted.", l),
		latency: reg.Histogram("gateway_replica_latency_seconds",
			"Wall-clock latency of replica dispatches, by replica.", obs.LatencyBuckets(), l),
	}
	reg.GaugeFunc("gateway_replica_healthy",
		"1 while the replica is routable (healthy or degraded), 0 while it is down.",
		func() float64 { return oneIf(r.State() != StateDown) }, l)
	reg.GaugeFunc("gateway_replica_degraded",
		"1 while the replica reports itself degraded (drift fired, no swap since).",
		func() float64 { return oneIf(r.State() == StateDegraded) }, l)
	reg.GaugeFunc("gateway_ingest_queue_depth",
		"Ingest batches waiting in the replica's fan-out queue.",
		func() float64 { return float64(len(r.queue)) }, l)
	reg.GaugeFunc("gateway_ingest_queue_bytes",
		"Raw-body bytes waiting in the replica's fan-out queue.",
		func() float64 { return float64(r.queuedBytes.Load()) }, l)
	return r, nil
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// dispatched records one dispatch to the replica: its latency, and an
// error when it failed at the transport layer.
func (r *replica) dispatched(d time.Duration, err error) {
	r.requests.Inc()
	r.latency.Observe(d.Seconds())
	if err != nil {
		r.errors.Inc()
	}
}

// mismatch reads the replica's self-reported identity when it
// disagrees with the fleet config.
func (r *replica) mismatch() string {
	s, _ := r.reportedID.Load().(string)
	return s
}

// State reads the replica's current state.
func (r *replica) State() ReplicaState { return ReplicaState(r.state.Load()) }

// routable reports whether requests may be dispatched to replica i.
func (g *Gateway) routable(i int) bool {
	return g.reps[i].State() != StateDown
}

// setState publishes a state transition, logging the change exactly
// once per transition.
func (g *Gateway) setState(rep *replica, next ReplicaState, reason string) {
	prev := ReplicaState(rep.state.Swap(int32(next)))
	if prev == next {
		return
	}
	g.svc.Logf("replica %s: %s -> %s (%s)", rep.id, prev, next, reason)
	if next == StateDown {
		rep.downSince.Store(time.Now().UnixMilli())
	}
}

// markFailed is the request path's passive failure detector: a
// transport-level dispatch failure marks the replica down immediately
// — waiting for the next probe tick would fail every request in the
// replica's hash range in the meantime — and counts one failover. The
// prober brings it back the moment /healthz answers again. Callers
// must filter client-caused and timeout errors first (clientCaused,
// isTimeout): only genuine transport failures may change fleet state.
func (g *Gateway) markFailed(rep *replica, err error) {
	rep.failovers.Inc()
	g.setState(rep, StateDown, fmt.Sprintf("dispatch failed: %v", err))
}

// healthzView is the subset of a replica's /healthz answer the
// balancer consumes: the serving epoch, the degraded flag, and the
// replica's self-reported identity (see internal/server Config
// ReplicaID), which is checked against the gateway's fleet config so a
// mis-wired address list is caught by the first probe round.
type healthzView struct {
	Status     string `json:"status"`
	Degraded   bool   `json:"degraded"`
	ModelEpoch uint64 `json:"model_epoch"`
	Replica    string `json:"replica"`
}

// probe performs one health check of rep and applies the outcome to
// the three-state view.
func (g *Gateway) probe(ctx context.Context, rep *replica) {
	pctx, cancel := context.WithTimeout(ctx, g.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, rep.url+"/healthz", nil)
	if err != nil {
		g.probeFailed(rep, err)
		return
	}
	resp, err := g.roundTrip(req)
	if err != nil {
		if ctx.Err() == nil { // a probe cut short by shutdown says nothing about the replica
			g.probeFailed(rep, err)
		}
		return
	}
	defer resp.Body.Close()
	var hv healthzView
	if derr := json.NewDecoder(resp.Body).Decode(&hv); derr != nil || resp.StatusCode != http.StatusOK {
		if derr == nil {
			derr = fmt.Errorf("status %d", resp.StatusCode)
		}
		g.probeFailed(rep, derr)
		return
	}
	rep.fails.Store(0)
	rep.epoch.Store(hv.ModelEpoch)
	next := StateHealthy
	reason := "probe ok"
	if hv.Degraded {
		next = StateDegraded
		reason = "replica reports degraded"
	}
	// A replica answering under the wrong identity means the fleet
	// config is mis-wired (swapped or stale URLs): every metric series,
	// X-Replica relay and ingest attribution for this entry is wrong.
	// It still answers correctly, so it stays routable — but degraded,
	// with the reported identity surfaced in /healthz, so the mismatch
	// is an operator-visible state rather than a scrolling log line.
	if hv.Replica != "" && hv.Replica != rep.id {
		rep.reportedID.Store(hv.Replica)
		next = StateDegraded
		reason = fmt.Sprintf("identity mismatch: /healthz reports %q — fleet config and serve -replica-id disagree", hv.Replica)
	} else {
		rep.reportedID.Store("")
	}
	g.setState(rep, next, reason)
}

// probeFailed counts one failed probe and marks the replica down once
// DownAfter consecutive probes have failed.
func (g *Gateway) probeFailed(rep *replica, err error) {
	if int(rep.fails.Add(1)) >= g.cfg.DownAfter {
		g.setState(rep, StateDown, fmt.Sprintf("probe failed: %v", err))
	}
}

// probeAll probes every replica concurrently, one worker each, and waits for the round
// to finish — used for the synchronous round at Start so the gateway
// never begins routing on an unverified fleet view.
func (g *Gateway) probeAll(ctx context.Context) {
	_ = par.For(len(g.reps), len(g.reps), func(i int) error {
		g.probe(ctx, g.reps[i])
		return nil
	})
}

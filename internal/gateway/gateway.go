package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
)

// Replica names one backend of the fleet: a stable identity (the label
// every per-replica metric series carries, and the value expected in
// the replica's X-Replica header / healthz replica field) and its base
// URL.
type Replica struct {
	ID  string
	URL string
}

// Config tunes the gateway. The zero value of every field means
// "default"; Replicas is required.
type Config struct {
	// Replicas is the fleet, in a stable order: ring points, metric
	// labels and /stats entries are all keyed by these IDs.
	Replicas []Replica
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout caps one /healthz probe (default 1s).
	ProbeTimeout time.Duration
	// DownAfter is the consecutive probe-failure count that marks a
	// replica down (default 2). Request-path transport failures mark it
	// down immediately regardless.
	DownAfter int
	// RequestTimeout caps one proxied dispatch (default 15s).
	RequestTimeout time.Duration
	// IngestQueue is each replica's fan-out queue depth in batches
	// (default 256). A full queue drops the batch for that replica only
	// — one slow replica never stalls ingestion for the fleet.
	IngestQueue int
	// IngestQueueBytes caps the total raw-body bytes waiting in one
	// replica's queue (default 64 MiB, raised to the /ingest body cap
	// if set lower so a single maximal batch always fits). This, not
	// IngestQueue × the body cap, is the per-replica ingest memory
	// budget while a replica is down and the stream keeps flowing.
	IngestQueueBytes int64
	// IngestAttempts bounds delivery attempts per batch (default 10);
	// IngestBackoff is the initial retry backoff (default 50ms),
	// doubling up to IngestBackoffCap (default 2s).
	IngestAttempts   int
	IngestBackoff    time.Duration
	IngestBackoffCap time.Duration
	// Metrics is the registry GET /metrics serves; nil makes the
	// gateway create its own.
	Metrics *obs.Registry
	// DisableMetrics leaves GET /metrics unregistered.
	DisableMetrics bool
	// Tracer enables span-based tracing of gateway requests; sampled
	// requests propagate a traceparent naming the gateway's trace to
	// the chosen replica, so the replica's own span tree joins the
	// gateway's root span. Nil leaves tracing off.
	Tracer *obs.Tracer
	// LogW receives state-transition and delivery-failure lines (nil
	// silences them).
	LogW io.Writer

	maxIngestBytes int64 // one /ingest body's cap (default 8 MiB); the package's tests lower it
}

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 2
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.maxIngestBytes <= 0 {
		c.maxIngestBytes = 8 << 20
	}
	if c.IngestQueue <= 0 {
		c.IngestQueue = 256
	}
	if c.IngestQueueBytes <= 0 {
		c.IngestQueueBytes = 64 << 20
	}
	if c.IngestQueueBytes < c.maxIngestBytes {
		c.IngestQueueBytes = c.maxIngestBytes
	}
	if c.IngestAttempts <= 0 {
		c.IngestAttempts = 10
	}
	if c.IngestBackoff <= 0 {
		c.IngestBackoff = 50 * time.Millisecond
	}
	if c.IngestBackoffCap <= 0 {
		c.IngestBackoffCap = 2 * time.Second
	}
	return c
}

// Gateway is the replica-fleet coordinator: an http.Handler exposing
// the serving API of a fleet of cmd/serve replicas behind one address,
// with consistent-hash query routing, health-aware failover, ingest
// fan-out and scatter/gather batching. See the package documentation
// for the routing and failover protocol.
type Gateway struct {
	cfg  Config
	reps []*replica
	ring *Ring
	// svc is the shared HTTP chassis: the mux, the per-request wrapper
	// protocol, request accounting, /metrics and /debug/traces.
	svc *httpsvc.Service

	// transport carries every request the gateway sends to its fleet
	// (see newTransport).
	transport *http.Transport

	startOnce sync.Once
}

// New assembles a Gateway over the configured fleet. Background work
// (health probing, ingest delivery) starts with Start.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, errors.New("gateway: no replicas configured")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	ids := make([]string, len(cfg.Replicas))
	g := &Gateway{
		cfg: cfg,
		svc: httpsvc.New(httpsvc.Options{
			Name:           "gateway",
			Metrics:        cfg.Metrics,
			DisableMetrics: cfg.DisableMetrics,
			Tracer:         cfg.Tracer,
			// An untyped handler failure is a backend's, not ours.
			FallbackStatus: http.StatusBadGateway,
			LogW:           cfg.LogW,
		}),
	}
	seen := make(map[string]bool, len(cfg.Replicas))
	for i, rc := range cfg.Replicas {
		if rc.ID == "" || rc.URL == "" {
			return nil, fmt.Errorf("gateway: replica %d: ID and URL are required", i)
		}
		if seen[rc.ID] {
			return nil, fmt.Errorf("gateway: duplicate replica ID %q", rc.ID)
		}
		seen[rc.ID] = true
		ids[i] = rc.ID
		// A replica starts healthy, optimistic until the first probe
		// round corrects it: Start probes synchronously before the
		// listener opens.
		rep, err := newReplica(rc, cfg.IngestQueue, cfg.Metrics)
		if err != nil {
			return nil, fmt.Errorf("gateway: replica %d: %w", i, err)
		}
		g.reps = append(g.reps, rep)
	}
	g.ring = NewRing(ids, DefaultVNodes)
	g.transport = newTransport()
	cfg.Metrics.GaugeFunc("gateway_replicas",
		"Configured fleet size.", func() float64 { return float64(len(g.reps)) })

	g.svc.Handle("/route", http.MethodGet, g.handleKeyed)
	g.svc.Handle("/route/anytime", http.MethodGet, g.handleKeyed)
	g.svc.Handle("/pairsum", http.MethodGet, g.handleKeyed)
	g.svc.Handle("/sample", http.MethodGet, g.handleKeyed)
	g.svc.Handle("/route/batch", http.MethodPost, g.handleRouteBatch)
	g.svc.Handle("/ingest", http.MethodPost, g.handleIngest)
	g.svc.Handle("/healthz", http.MethodGet, g.handleHealthz)
	g.svc.Handle("/stats", http.MethodGet, g.handleStats)
	return g, nil
}

// Start runs one synchronous probe round (so routing never begins on
// an unverified fleet view) and launches the background prober and the
// per-replica ingest delivery workers. All of them stop when ctx is
// cancelled, and the gateway's idle connections to the fleet are
// closed. Start is idempotent.
func (g *Gateway) Start(ctx context.Context) {
	g.startOnce.Do(func() {
		g.probeAll(ctx)
		go func() {
			g.probeLoop(ctx)
			// Nothing more will be sent: release the parked connections
			// rather than leaving them to the idle timeout.
			g.transport.CloseIdleConnections()
		}()
		for _, rep := range g.reps {
			go g.ingestWorker(ctx, rep)
		}
	})
}

// probeLoop re-probes the fleet every ProbeInterval until ctx ends.
func (g *Gateway) probeLoop(ctx context.Context) {
	t := time.NewTicker(g.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			g.probeAll(ctx)
		}
	}
}

// Handler returns the HTTP handler serving the gateway API.
func (g *Gateway) Handler() http.Handler { return g.svc.Handler() }

// Serve starts the background workers and runs the gateway on addr
// until ctx is cancelled, then shuts down gracefully.
func (g *Gateway) Serve(ctx context.Context, addr string) error {
	g.Start(ctx)
	return httpsvc.Serve(ctx, addr, g.Handler())
}

// --- consistent-hash routed endpoints --------------------------------

// routingKey derives the ring key of one request. /route-shaped
// endpoints key on the (source, dest) pair — in whichever form the
// client supplied it (IDs or coordinates), so the same client query
// always lands on the same replica and its route cache stays hot for
// that key range. /pairsum keys on the edge pair, /sample on its full
// parameter set (same sample workload -> same replica -> one snap of
// the RNG stream). A pair hashes as the string "a>b" would, fed to the
// hash piecewise out of the raw query.
func routingKey(r *http.Request) (uint64, error) {
	switch r.URL.Path {
	case "/pairsum":
		first, second := httpsvc.QueryParam(r, "first"), httpsvc.QueryParam(r, "second")
		if first == "" || second == "" {
			return 0, httpsvc.BadRequest("first/second: both edge IDs are required")
		}
		return keyForPairStrings(first, second), nil
	case "/sample":
		return KeyForString(r.URL.RawQuery), nil
	default:
		src := httpsvc.QueryParam(r, "source")
		if src == "" {
			src = httpsvc.QueryParam(r, "from")
		}
		dst := httpsvc.QueryParam(r, "dest")
		if dst == "" {
			dst = httpsvc.QueryParam(r, "to")
		}
		if src == "" || dst == "" {
			return 0, httpsvc.BadRequest("missing source/from and dest/to")
		}
		return keyForPairStrings(src, dst), nil
	}
}

// statusClientClosedRequest is nginx's 499: the client went away
// before the answer was ready. Never actually seen by that client —
// its connection is gone — but it keeps the error accounting honest.
const statusClientClosedRequest = 499

// clientCaused reports whether a dispatch failure originated on the
// client side of the proxied request: the inbound context ended
// (disconnect, or the client's own deadline) rather than the replica
// failing. Such errors must never change replica state — marking down
// on a canceled context would cascade, because the failover retry
// reuses the same dead context against the next live replica, downing
// the whole fleet off one disconnecting client.
func clientCaused(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled)
}

// isTimeout reports a per-dispatch timeout (RequestTimeout or a
// context deadline): one pathologically slow query, not evidence the
// replica is down. The prober owns that verdict — a genuinely hung
// replica fails its /healthz probes within DownAfter×ProbeInterval.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout())
}

// handleKeyed answers one consistent-hash routed GET: resolve the
// ring owner among live replicas, proxy, and on a transport failure
// fail over to the next live owner — the client sees one answer or one
// error, never a partial.
func (g *Gateway) handleKeyed(w http.ResponseWriter, r *http.Request) error {
	key, err := routingKey(r)
	if err != nil {
		return err
	}
	for attempt := 0; attempt <= len(g.reps); attempt++ {
		idx := g.ring.OwnerAlive(key, g.routable)
		if idx < 0 {
			return &httpsvc.Error{Code: http.StatusServiceUnavailable, Msg: "no live replicas"}
		}
		if failover, err := g.proxy(w, r, g.reps[idx]); !failover {
			return err
		}
	}
	return &httpsvc.Error{Code: http.StatusBadGateway, Msg: "all replicas failed"}
}

// proxy forwards r to rep and relays the answer, dispatch and body
// together under one RequestTimeout deadline. failover reports a
// transport failure before anything was relayed: rep is marked down
// and the caller may try the next owner. Otherwise err is the
// request's outcome; client-caused failures (disconnect, timeout) end
// the request without touching replica state.
func (g *Gateway) proxy(w http.ResponseWriter, r *http.Request, rep *replica) (failover bool, err error) {
	ctx := r.Context()
	dctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	resp, err := g.dispatch(dctx, rep, r)
	if err != nil {
		if clientCaused(ctx, err) {
			return false, &httpsvc.Error{Code: statusClientClosedRequest, Msg: "client closed request"}
		}
		if isTimeout(err) {
			return false, &httpsvc.Error{Code: http.StatusGatewayTimeout, Msg: fmt.Sprintf("replica %s: %v", rep.id, err)}
		}
		g.markFailed(rep, err)
		return true, nil
	}
	if err := relay(w, resp, rep); err != nil {
		if ctx.Err() == nil {
			// The replica died mid-body; the client hanging up is
			// not the replica's error.
			rep.errors.Inc()
		}
		// The status line is already on the wire: count and log,
		// append nothing (see httpsvc.Aborted).
		return false, &httpsvc.Aborted{Err: fmt.Errorf("relay from replica %s aborted mid-body: %w", rep.id, err)}
	}
	return false, nil
}

// forwardedHeaders are the identity headers a replica should see, on a
// proxied GET and on a sub-batch alike; the inbound traceparent passes
// through unless the gateway's own sampling replaces it in send.
var forwardedHeaders = [...]string{httpsvc.HeaderRequestID, httpsvc.HeaderAccept, httpsvc.HeaderContentType, httpsvc.HeaderTraceparent}

// dispatch forwards one GET to rep: the inbound path and raw query on
// the replica's base URL, under the inbound request's identity.
func (g *Gateway) dispatch(ctx context.Context, rep *replica, r *http.Request) (*http.Response, error) {
	req := rep.request(ctx, r, http.MethodGet, r.URL.Path, r.URL.RawQuery)
	return g.send(rep, req, "proxy", 0)
}

// request derives a request to the replica from its template under
// ctx: the method, and the path and raw query on a copy of its parsed
// base URL, carrying the request identity of r (forwardedHeaders).
// Nothing is formatted or re-parsed, and the header values are r's own
// slices.
func (rep *replica) request(ctx context.Context, r *http.Request, method, path, rawQuery string) *http.Request {
	u := *rep.get.URL
	u.Path += path
	u.RawQuery = rawQuery
	req := rep.get.WithContext(ctx)
	req.Method = method
	req.URL = &u
	req.Header = make(http.Header, len(forwardedHeaders))
	for _, key := range forwardedHeaders {
		httpsvc.ShareHeader(req.Header, r.Header, key)
	}
	return req
}

// send round-trips req to rep and counts the dispatch. When the gateway
// sampled the request (req's context carries the span), the send is a
// span of its own, named span, and the replica receives a traceparent
// naming the gateway's trace with that span as parent, so the replica's
// span tree joins the gateway's waterfall in /debug/traces. items, when
// positive, is the size of the sub-batch req carries.
func (g *Gateway) send(rep *replica, req *http.Request, span string, items int) (*http.Response, error) {
	_, psp := obs.StartSpan(req.Context(), span)
	if psp != nil {
		psp.SetStr("replica", rep.id)
		if items > 0 {
			psp.SetInt("items", int64(items))
		}
		req.Header[httpsvc.HeaderTraceparent] = []string{obs.FormatTraceparent(psp.TraceID(), psp.WireID(), true)}
	}
	t0 := time.Now()
	resp, err := g.roundTrip(req)
	rep.dispatched(time.Since(t0), err)
	if psp != nil {
		psp.SetError(err)
		psp.End()
	}
	return resp, err
}

// idleConnsPerReplica is how many keep-alive connections the gateway
// parks per replica between requests. The gateway bounds neither its
// own concurrency nor its clients', and a request that finds no parked
// connection dials: at net/http's default of 2, a fleet under a third
// concurrent request per replica closes and re-dials continuously. 64
// parked sockets per replica is small next to the dials it saves.
const idleConnsPerReplica = 64

// newTransport builds the connection pool the gateway sends everything
// through: dispatches, sub-batches, ingest deliveries and probes. It is
// the gateway's own, not http.DefaultTransport, so no other HTTP user
// in the process competes for its connections or inherits its
// settings. Replicas are peers addressed directly (no proxy lookup)
// and answer small uncompressed JSON, so the transport does not
// advertise gzip it would only have to undo. It sets no timeouts of its
// own: every request carries a context deadline (RequestTimeout,
// ProbeTimeout) that also bounds its dial.
func newTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConnsPerHost: idleConnsPerReplica,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
}

// roundTrip sends one request to a replica. A failure is wrapped the
// way net/http's client wraps one — method and URL in front — so a 504
// body or a markFailed log line names the replica address that failed.
func (g *Gateway) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := g.transport.RoundTrip(req)
	if err != nil {
		op := req.Method[:1] + strings.ToLower(req.Method[1:])
		return nil, &url.Error{Op: op, URL: req.URL.String(), Err: err}
	}
	return resp, nil
}

// relay copies a replica response to the client: status, body, and the
// Content-Type, X-Cache and X-Replica headers through the upstream
// response's own value slices. A replica that did not identify itself
// is named by the gateway.
func relay(w http.ResponseWriter, resp *http.Response, rep *replica) error {
	defer resp.Body.Close()
	h := w.Header()
	httpsvc.ShareHeader(h, resp.Header, httpsvc.HeaderContentType)
	httpsvc.ShareHeader(h, resp.Header, httpsvc.HeaderCache)
	if !httpsvc.ShareHeader(h, resp.Header, httpsvc.HeaderReplica) {
		h[httpsvc.HeaderReplica] = rep.idHeader
	}
	w.WriteHeader(resp.StatusCode)
	_, err := io.Copy(w, resp.Body)
	return err
}

// --- gateway health and stats ----------------------------------------

// replicaHealth is one replica's entry in the gateway's /healthz.
type replicaHealth struct {
	ID    string `json:"id"`
	URL   string `json:"url"`
	State string `json:"state"`
	// ModelEpoch is the replica's serving epoch from its last
	// successful probe.
	ModelEpoch uint64 `json:"model_epoch"`
	// QueueDepth is the replica's pending ingest fan-out backlog, in
	// batches; QueueBytes is the same backlog in raw-body bytes.
	QueueDepth int   `json:"queue_depth"`
	QueueBytes int64 `json:"queue_bytes"`
	// DownSinceUnixMS is the last down transition (0 = never).
	DownSinceUnixMS int64 `json:"down_since_unix_ms,omitempty"`
	// ReportedID is the identity the replica itself reported when it
	// disagrees with the fleet config (a mis-wired -replicas list);
	// empty while identities agree. A non-empty value holds the replica
	// in the degraded state.
	ReportedID string `json:"reported_id,omitempty"`
}

// gatewayHealth is the fleet view: status is "ok" when every replica
// is healthy, "degraded" while any replica is degraded or down but at
// least one is routable, and "down" (with HTTP 503) when none is.
type gatewayHealth struct {
	Status   string          `json:"status"`
	Healthy  int             `json:"healthy"`
	Degraded int             `json:"degraded"`
	Down     int             `json:"down"`
	Replicas []replicaHealth `json:"replicas"`
	UptimeS  float64         `json:"uptime_s"`
}

func (g *Gateway) fleetHealth() *gatewayHealth {
	out := &gatewayHealth{
		Replicas: make([]replicaHealth, len(g.reps)),
		UptimeS:  g.svc.Uptime().Seconds(),
	}
	for i, rep := range g.reps {
		st := rep.State()
		out.Replicas[i] = replicaHealth{
			ID:              rep.id,
			URL:             rep.url,
			State:           st.String(),
			ModelEpoch:      rep.epoch.Load(),
			QueueDepth:      len(rep.queue),
			QueueBytes:      rep.queuedBytes.Load(),
			DownSinceUnixMS: rep.downSince.Load(),
			ReportedID:      rep.mismatch(),
		}
		switch st {
		case StateHealthy:
			out.Healthy++
		case StateDegraded:
			out.Degraded++
		case StateDown:
			out.Down++
		}
	}
	switch {
	case out.Down == 0 && out.Degraded == 0:
		out.Status = "ok"
	case out.Healthy+out.Degraded > 0:
		out.Status = "degraded"
	default:
		out.Status = "down"
	}
	return out
}

func (g *Gateway) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	h := g.fleetHealth()
	if h.Status == "down" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		return json.NewEncoder(w).Encode(h)
	}
	return httpsvc.WriteJSON(w, h)
}

// replicaStatsEntry joins a replica's health view with its counter
// snapshot for /stats.
type replicaStatsEntry struct {
	replicaHealth
	replicaCounts
}

// replicaCounts is one replica's counters as /stats reports them: the
// values of the series /metrics renders under its replica label.
type replicaCounts struct {
	Requests        uint64 `json:"requests"`
	Errors          uint64 `json:"errors"`
	Failovers       uint64 `json:"failovers"`
	IngestEnqueued  uint64 `json:"ingest_enqueued"`
	IngestDelivered uint64 `json:"ingest_delivered"`
	IngestRetries   uint64 `json:"ingest_retries"`
	IngestDropped   uint64 `json:"ingest_dropped"`
	BatchItems      uint64 `json:"batch_items"`
}

func (r *replica) counts() replicaCounts {
	return replicaCounts{
		Requests:        r.requests.Value(),
		Errors:          r.errors.Value(),
		Failovers:       r.failovers.Value(),
		IngestEnqueued:  r.ingestEnqueued.Value(),
		IngestDelivered: r.ingestDelivered.Value(),
		IngestRetries:   r.ingestRetries.Value(),
		IngestDropped:   r.ingestDropped.Value(),
		BatchItems:      r.batchItems.Value(),
	}
}

type gatewayStats struct {
	UptimeS   float64                          `json:"uptime_s"`
	Inflight  int64                            `json:"inflight"`
	Status    string                           `json:"status"`
	Replicas  []replicaStatsEntry              `json:"replicas"`
	Endpoints map[string]httpsvc.EndpointStats `json:"endpoints"`
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) error {
	h := g.fleetHealth()
	out := &gatewayStats{
		UptimeS:   h.UptimeS,
		Inflight:  g.svc.Inflight(),
		Status:    h.Status,
		Replicas:  make([]replicaStatsEntry, len(g.reps)),
		Endpoints: g.svc.EndpointStats(),
	}
	for i, rep := range g.reps {
		out.Replicas[i] = replicaStatsEntry{replicaHealth: h.Replicas[i], replicaCounts: rep.counts()}
	}
	return httpsvc.WriteJSON(w, out)
}

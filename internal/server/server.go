package server

import (
	"context"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/httpsvc"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// Backend is the routing surface the server exposes over HTTP. Its
// methods must be safe for concurrent use; *stochroute.Engine satisfies
// the interface. ModelEpoch identifies the serving model generation —
// it moves forward when the ingestion subsystem hot-swaps a rebuilt
// model — and SliceEpoch identifies one time-of-day slice's
// generation; the server uses the slice epochs to invalidate its
// per-slice result caches, so a peak-hour rebuild never evicts the
// night slice's warm cache.
type Backend interface {
	Graph() *graph.Graph
	NearestVertex(lat, lon float64) graph.VertexID
	// RouteCtx answers one query. ctx carries the request's trace
	// context: when the serving layer sampled the request, the backend
	// is expected to emit its search spans as children of ctx's active
	// span (obs.StartSpan); with an unsampled ctx the backend must add
	// no overhead.
	RouteCtx(ctx context.Context, source, dest graph.VertexID, opts routing.Options) (*routing.Result, error)
	// RouteBatch answers queries[i] in item i against ONE model
	// snapshot: a hot swap mid-batch must never split a batch across
	// model generations, and every item (error items included) carries
	// the epoch of the slice that served it under that snapshot.
	// Cancelling ctx stops the batch between queries. workers <= 0
	// picks a sensible default.
	RouteBatch(ctx context.Context, queries []routing.BatchQuery, workers int) []routing.BatchItem
	AlternativeRoutes(source, dest graph.VertexID, horizon float64, maxRoutes int) ([]routing.ParetoRoute, error)
	// PairSumAt answers under the given time-of-day slice's serving
	// model (slice 0 = the classic time-homogeneous answer).
	PairSumAt(slice int, first, second graph.EdgeID) (*hist.Hist, error)
	OptimisticTime(source, dest graph.VertexID) (float64, error)
	SampleQueries(loKm, hiKm float64, n int, seed uint64) ([]netgen.Query, error)
	DecisionCounts() (convolved, estimated uint64)
	ModelEpoch() uint64
	// NumSlices is the slice count of the serving cost model (1 =
	// time-homogeneous); SliceOf maps a departure timestamp to its
	// slice; SliceEpoch / SliceEpochs expose per-slice generations.
	NumSlices() int
	SliceOf(depart float64) int
	SliceEpoch(slice int) uint64
	SliceEpochs() []uint64
}

// Config tunes the serving layer. The zero value means "defaults";
// negative cache capacities disable the respective cache.
type Config struct {
	// RequestTimeout caps the wall-clock time of one routing search
	// (default 10s). Searches cut off by the timeout return their best
	// pivot path with Complete=false and are not cached.
	RequestTimeout time.Duration
	// RouteCache is the route result cache capacity in entries
	// (default 4096, negative disables).
	RouteCache int
	// BudgetBucketSeconds quantises the budget in route cache keys: two
	// requests for the same (source, dest) whose budgets fall in the
	// same bucket share one cached path, with the on-time probability
	// recomputed exactly from the cached distribution per request
	// (default 15s; <= 0 keys on the exact budget).
	BudgetBucketSeconds float64
	// MaxBatch caps the query count of one POST /route/batch request
	// (default 256, negative disables the endpoint).
	MaxBatch int
	// BatchWorkers bounds the worker pool answering one batch
	// (default 0: the backend picks, typically GOMAXPROCS).
	BatchWorkers int
	// MaxBatchBytes caps one /route/batch request body (default 1 MiB).
	MaxBatchBytes int64
	// Ingestor, when set, enables the POST /ingest endpoint: the write
	// path that folds streamed trajectories into the model (see
	// internal/ingest). Nil leaves the endpoint unregistered.
	Ingestor *ingest.Ingestor
	// MaxIngestBytes caps one /ingest request body (default 8 MiB);
	// oversized payloads are rejected before they can balloon memory.
	MaxIngestBytes int64
	// Metrics is the registry GET /metrics serves and every server
	// counter lives in. Nil makes the server create its own; pass a
	// shared registry (as cmd/serve does) so the engine's search
	// telemetry and the ingestor's drift/swap series land in the same
	// exposition.
	Metrics *obs.Registry
	// DisableMetrics leaves GET /metrics unregistered. The counters are
	// still maintained — /stats reads them through the same registry.
	DisableMetrics bool
	// SlowQueryThreshold makes every /route and /route/anytime request
	// at least this slow emit one structured slow_query log line
	// (<= 0 disables it).
	SlowQueryThreshold time.Duration
	// TraceLogger is the slog destination of slow_query lines; nil
	// falls back to slog.Default().
	TraceLogger *slog.Logger
	// Tracer enables span-based tracing: sampled requests (the tracer's
	// 1-in-N head sampling, or any request carrying a sampled W3C
	// traceparent header) get a span tree published to the tracer's
	// SpanStore and served by GET /debug/traces. Nil leaves tracing off
	// and /debug/traces unregistered. Construct the tracer externally
	// (cmd/serve does) so ingest rebuild traces land in the same store.
	Tracer *obs.Tracer
	// ReplicaID names this server instance within a replica fleet. When
	// set, every response carries it in an X-Replica header and /healthz
	// reports it as "replica" — the identity a fleet gateway
	// (internal/gateway) checks against its configured address list and
	// uses for per-replica attribution. Empty means standalone: no
	// header, no field.
	ReplicaID string
}

func (c Config) withDefaults() Config {
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.RouteCache == 0 {
		c.RouteCache = 4096
	}
	if c.BudgetBucketSeconds == 0 {
		c.BudgetBucketSeconds = 15
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 256
	}
	if c.MaxBatchBytes <= 0 {
		c.MaxBatchBytes = 1 << 20
	}
	if c.MaxIngestBytes <= 0 {
		c.MaxIngestBytes = 8 << 20
	}
	// Disabled is the largest Duration, so the request path pays one
	// compare whether or not the slow_query line is on.
	if c.SlowQueryThreshold <= 0 {
		c.SlowQueryThreshold = math.MaxInt64
	}
	if c.TraceLogger == nil {
		c.TraceLogger = slog.Default()
	}
	return c
}

// Server is the concurrent routing service: an http.Handler answering
// Probabilistic Budget Routing queries over a shared Backend, with
// per-time-of-day-slice sharded LRU caches for complete route results.
// Keying the caches on slice means two things: queries for different
// departure slices never collide on one entry, and each slice's cache
// is epoch-validated against *its own* slice's serving generation — a
// rebuild of the AM-peak model invalidates only the AM-peak cache.
type Server struct {
	backend Backend
	cfg     Config
	// svc is the shared HTTP chassis: the mux, the per-request wrapper
	// protocol, request accounting, /metrics and /debug/traces.
	svc *httpsvc.Service

	// routes[s] caches slice s's results (length backend.NumSlices()).
	routes []*ShardedLRU[routeKey, routeEntry]

	// routeLat is the pre-registered route_latency_seconds family;
	// runtime is the shared Go-runtime sampler behind the go_* series
	// and /stats.
	routeLat *routeLatencyMetrics
	runtime  *obs.RuntimeStats
}

const (
	// cacheShards is the lock-shard count of every result cache.
	cacheShards = 16
	// maxAlternatives caps the skyline size a client may request.
	maxAlternatives = 16
	// maxSample caps the query count of one /sample call.
	maxSample = 512
)

// perSliceCapacity splits a total cache capacity over k slices (at
// least 1 entry each; <= 0 stays "disabled").
func perSliceCapacity(total, k int) int {
	if total <= 0 || k <= 1 {
		return total
	}
	per := total / k
	if per < 1 {
		per = 1
	}
	return per
}

// New assembles a Server over backend. The backend's query path must be
// safe for concurrent use (see Backend).
func New(backend Backend, cfg Config) *Server {
	cfg = cfg.withDefaults()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	k := backend.NumSlices()
	if k < 1 {
		k = 1
	}
	s := &Server{
		backend: backend,
		cfg:     cfg,
		svc: httpsvc.New(httpsvc.Options{
			Name:           "server",
			Metrics:        cfg.Metrics,
			DisableMetrics: cfg.DisableMetrics,
			Tracer:         cfg.Tracer,
			FallbackStatus: http.StatusInternalServerError,
			ReplicaID:      cfg.ReplicaID,
		}),
		routes: make([]*ShardedLRU[routeKey, routeEntry], k),
	}
	for i := 0; i < k; i++ {
		s.routes[i] = NewShardedLRU[routeKey, routeEntry](cacheShards, perSliceCapacity(cfg.RouteCache, k))
	}
	s.initMetrics(k)
	s.svc.Handle("/route", http.MethodGet, s.handleRoute)
	s.svc.Handle("/route/anytime", http.MethodGet, s.handleRouteAnytime)
	if cfg.MaxBatch > 0 {
		s.svc.Handle("/route/batch", http.MethodPost, s.handleRouteBatch)
	}
	s.svc.Handle("/alternatives", http.MethodGet, s.handleAlternatives)
	s.svc.Handle("/pairsum", http.MethodGet, s.handlePairSum)
	s.svc.Handle("/sample", http.MethodGet, s.handleSample)
	s.svc.Handle("/healthz", http.MethodGet, s.handleHealthz)
	s.svc.Handle("/stats", http.MethodGet, s.handleStats)
	if cfg.Ingestor != nil {
		s.svc.Handle("/ingest", http.MethodPost, s.handleIngest)
	}
	return s
}

// Handler returns the HTTP handler serving the API.
func (s *Server) Handler() http.Handler { return s.svc.Handler() }

// Serve runs the API on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 5 seconds.
func (s *Server) Serve(ctx context.Context, addr string) error {
	return httpsvc.Serve(ctx, addr, s.Handler())
}

// --- request parsing -------------------------------------------------

// vertexParam parses an endpoint given either as a vertex ID (idKey) or
// as a "lat,lon" coordinate (coordKey) snapped to the nearest vertex.
func (s *Server) vertexParam(r *http.Request, idKey, coordKey string) (graph.VertexID, error) {
	g := s.backend.Graph()
	if raw := httpsvc.QueryParam(r, idKey); raw != "" {
		id, err := strconv.Atoi(raw)
		if err != nil {
			return graph.NoVertex, httpsvc.BadRequest("%s: not an integer: %q", idKey, raw)
		}
		if id < 0 || id >= g.NumVertices() {
			return graph.NoVertex, httpsvc.BadRequest("%s: vertex %d out of range [0, %d)", idKey, id, g.NumVertices())
		}
		return graph.VertexID(id), nil
	}
	if raw := httpsvc.QueryParam(r, coordKey); raw != "" {
		parts := strings.Split(raw, ",")
		if len(parts) != 2 {
			return graph.NoVertex, httpsvc.BadRequest("%s: want lat,lon, got %q", coordKey, raw)
		}
		lat, err1 := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		lon, err2 := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err1 != nil || err2 != nil || !(geo.Point{Lat: lat, Lon: lon}).Valid() {
			return graph.NoVertex, httpsvc.BadRequest("%s: invalid coordinate %q", coordKey, raw)
		}
		v := s.backend.NearestVertex(lat, lon)
		if v == graph.NoVertex {
			return graph.NoVertex, httpsvc.BadRequest("%s: no vertex near %q", coordKey, raw)
		}
		return v, nil
	}
	return graph.NoVertex, httpsvc.BadRequest("missing %s (vertex ID) or %s (lat,lon)", idKey, coordKey)
}

func (s *Server) endpointsParam(r *http.Request) (src, dst graph.VertexID, err error) {
	if src, err = s.vertexParam(r, "source", "from"); err != nil {
		return
	}
	dst, err = s.vertexParam(r, "dest", "to")
	return
}

func (s *Server) budgetParam(r *http.Request) (float64, error) {
	budget, err := httpsvc.FloatParam(r, "budget", 0)
	if err != nil {
		return 0, err
	}
	if budget <= 0 {
		return 0, httpsvc.BadRequest("budget: must be a positive number of seconds")
	}
	return budget, nil
}

// departParam parses the optional `depart` parameter: the trip's start
// time in seconds since local midnight (default 0 — slice 0, the
// time-homogeneous behaviour). Values beyond one day wrap; negatives
// are rejected.
func (s *Server) departParam(r *http.Request) (float64, error) {
	depart, err := httpsvc.FloatParam(r, "depart", 0)
	if err != nil {
		return 0, err
	}
	if depart < 0 {
		return 0, httpsvc.BadRequest("depart: must be a non-negative number of seconds since midnight")
	}
	return depart, nil
}

func (s *Server) bucketOf(budget float64) uint64 {
	if s.cfg.BudgetBucketSeconds > 0 {
		return uint64(budget / s.cfg.BudgetBucketSeconds)
	}
	return math.Float64bits(budget)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

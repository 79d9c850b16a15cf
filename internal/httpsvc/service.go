package httpsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"stochroute/internal/obs"
)

// Options are the construction-time values the replica and the gateway
// disagree on; everything else about the wrapper protocol is fixed.
type Options struct {
	// Name identifies the process kind ("server", "gateway") in the
	// uptime gauge's help text and as the prefix of Logf lines.
	Name string
	// Metrics is the registry the per-endpoint series and the gauges are
	// registered in and GET /metrics serves. Required.
	Metrics *obs.Registry
	// DisableMetrics leaves GET /metrics unregistered; the series are
	// still maintained.
	DisableMetrics bool
	// Tracer enables request sampling and GET /debug/traces; nil leaves
	// both off.
	Tracer *obs.Tracer
	// FallbackStatus answers a handler error that is neither *Error nor
	// *Aborted.
	FallbackStatus int
	// ReplicaID, when set, is stamped on every response as X-Replica.
	ReplicaID string
	// LogW receives Logf lines (nil silences them).
	LogW io.Writer
}

// HandlerFunc is an endpoint handler: it writes the success response
// itself and returns an error for the wrapper to turn into the failure
// response (see the package documentation).
type HandlerFunc func(http.ResponseWriter, *http.Request) error

// Service is one process's HTTP surface: a mux whose every endpoint
// runs the wrapper protocol, with the shared request accounting behind
// it. Register endpoints with Handle before serving; everything after
// construction is safe for concurrent use.
type Service struct {
	opts      Options
	mux       *http.ServeMux
	endpoints map[string]*endpoint
	// replicaHeader is the X-Replica value slice every response shares
	// (nil without a ReplicaID); nothing may write through it.
	replicaHeader []string
	started       time.Time
	inflight      atomic.Int64
	logMu         sync.Mutex
}

// New builds a Service and mounts /metrics (unless disabled) and, with
// a tracer, /debug/traces.
func New(opts Options) *Service {
	s := &Service{
		opts:      opts,
		mux:       http.NewServeMux(),
		endpoints: make(map[string]*endpoint),
		started:   time.Now(),
	}
	if opts.ReplicaID != "" {
		s.replicaHeader = []string{opts.ReplicaID}
	}
	opts.Metrics.GaugeFunc("uptime_seconds", "Seconds since the "+opts.Name+" started.",
		func() float64 { return s.Uptime().Seconds() })
	opts.Metrics.GaugeFunc("inflight_requests", "Requests currently being served.",
		func() float64 { return float64(s.Inflight()) })
	if !opts.DisableMetrics {
		metrics := opts.Metrics.Handler()
		s.Handle("/metrics", http.MethodGet, func(w http.ResponseWriter, r *http.Request) error {
			metrics.ServeHTTP(w, r)
			return nil
		})
	}
	if opts.Tracer.Enabled() {
		s.Handle("/debug/traces", http.MethodGet, s.handleDebugTraces)
	}
	return s
}

// Handler returns the HTTP handler serving every registered endpoint.
func (s *Service) Handler() http.Handler { return s.mux }

// Uptime is the time since the service was constructed.
func (s *Service) Uptime() time.Duration { return time.Since(s.started) }

// Inflight is the number of requests currently inside a handler.
func (s *Service) Inflight() int64 { return s.inflight.Load() }

// EndpointStats is one endpoint's entry in a /stats answer.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// EndpointStats snapshots the request and error counters of every
// registered endpoint, keyed by pattern — the same atomics /metrics
// renders.
func (s *Service) EndpointStats() map[string]EndpointStats {
	out := make(map[string]EndpointStats, len(s.endpoints))
	for pattern, e := range s.endpoints {
		out[pattern] = EndpointStats{Requests: e.requests.Value(), Errors: e.errors.Value()}
	}
	return out
}

// Logf writes one "name: ..." line to the log sink, serialised so
// concurrent requests never interleave; a no-op without a sink.
func (s *Service) Logf(format string, args ...any) {
	if s.opts.LogW == nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	fmt.Fprintf(s.opts.LogW, s.opts.Name+": "+format+"\n", args...)
}

// endpoint is one registered pattern: its handler and the pre-bound
// series its requests are accounted in. It is the http.Handler the mux
// dispatches to, so a request costs no closure and no ResponseWriter
// wrapper.
type endpoint struct {
	svc       *Service
	pattern   string
	method    string
	traceable bool
	h         HandlerFunc
	requests  *obs.Counter
	errors    *obs.Counter
	latency   *obs.Histogram
}

// Handle registers h for pattern, restricted to one HTTP method, under
// the wrapper protocol described in the package documentation.
func (s *Service) Handle(pattern, method string, h HandlerFunc) {
	reg, l := s.opts.Metrics, obs.L("endpoint", pattern)
	e := &endpoint{
		svc:     s,
		pattern: pattern,
		method:  method,
		// Tracing a scrape would fill the store with noise the moment
		// someone looks at it.
		traceable: pattern != "/debug/traces" && pattern != "/metrics",
		h:         h,
		requests:  reg.Counter("http_requests_total", "HTTP requests served, by endpoint.", l),
		errors:    reg.Counter("http_request_errors_total", "HTTP requests answered with an error status, by endpoint.", l),
		latency:   reg.Histogram("http_request_duration_seconds", "Wall-clock request latency, by endpoint.", obs.LatencyBuckets(), l),
	}
	s.endpoints[pattern] = e
	s.mux.Handle(pattern, e)
}

func (e *endpoint) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := e.svc
	if r.Method != e.method {
		w.Header().Set("Allow", e.method)
		writeError(w, http.StatusMethodNotAllowed, "method not allowed")
		return
	}
	start := time.Now()
	h := w.Header()
	if !ShareHeader(h, r.Header, HeaderRequestID) {
		// The minted ID is the request's own from here on, so a
		// gateway's dispatch forwards it and the replica logs and
		// traces the request under the same ID.
		id := []string{obs.NewRequestID()}
		h[HeaderRequestID], r.Header[HeaderRequestID] = id, id
	}
	if s.replicaHeader != nil {
		h[HeaderReplica] = s.replicaHeader
	}
	var root *obs.Span
	if e.traceable {
		tp, ok := obs.ParseTraceparent(HeaderValue(r.Header, HeaderTraceparent))
		if s.opts.Tracer.ShouldSample(ok && tp.Sampled) {
			var ctx context.Context
			ctx, root = s.opts.Tracer.StartRequest(r.Context(), e.pattern, h[HeaderRequestID][0], tp)
			r = r.WithContext(ctx)
			h[HeaderTraceparent] = []string{obs.FormatTraceparent(root.TraceID(), root.WireID(), true)}
		}
	}
	e.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	err := e.serve(w, r)
	e.latency.Observe(time.Since(start).Seconds())
	if err != nil {
		e.errors.Inc()
		root.SetError(err)
		if he := (*Error)(nil); errors.As(err, &he) {
			writeError(w, he.Code, he.Msg)
		} else if aborted := (*Aborted)(nil); errors.As(err, &aborted) {
			s.Logf("%s: %v", e.pattern, err)
		} else {
			writeError(w, s.opts.FallbackStatus, err.Error())
		}
	}
	s.opts.Tracer.Finish(root)
}

// serve runs the handler and answers its panic 500: a dropped
// connection would read, to a gateway, as a dead replica.
func (e *endpoint) serve(w http.ResponseWriter, r *http.Request) (err error) {
	defer func() {
		if p := recover(); p == http.ErrAbortHandler {
			panic(p)
		} else if p != nil {
			e.svc.Logf("%s: request %s panicked: %v\n%s", e.pattern, HeaderValue(w.Header(), HeaderRequestID), p, debug.Stack())
			err = &Error{Code: http.StatusInternalServerError, Msg: "internal error"}
		}
	}()
	return e.h(w, r)
}

// Serve runs handler on addr until ctx is cancelled, then shuts down
// gracefully, draining in-flight requests for up to 5 seconds.
func Serve(ctx context.Context, addr string, handler http.Handler) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			return err
		}
		<-errc // always http.ErrServerClosed after Shutdown
		return nil
	}
}

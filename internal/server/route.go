package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// routeKey identifies one cacheable routing query.
type routeKey struct {
	src, dst graph.VertexID
	bucket   uint64
}

// cacheHit / cacheMiss are the X-Cache value slices every response
// shares; nothing may write through them.
var (
	cacheHit  = []string{"hit"}
	cacheMiss = []string{"miss"}
)

// markCache stamps the X-Cache header of a cacheable endpoint.
func markCache(w http.ResponseWriter, hit bool) {
	v := cacheMiss
	if hit {
		v = cacheHit
	}
	w.Header()[httpsvc.HeaderCache] = v
}

// routeEntry is a cached complete route: the chosen path and its full
// travel-time distribution, from which any budget in the key's bucket
// recomputes its exact on-time probability, plus the model epoch that
// computed it (also the entry's cache-validity tag).
// The distribution's header is held by value, so an entry pins its
// path and masses and nothing else of the search's Result.
type routeEntry struct {
	path  []graph.EdgeID
	dist  hist.Hist
	epoch uint64
}

// routeResponse is the JSON answer of /route and /route/anytime.
type routeResponse struct {
	Source graph.VertexID `json:"source"`
	Dest   graph.VertexID `json:"dest"`
	Budget float64        `json:"budget_s"`
	// Depart echoes the requested departure (seconds since midnight)
	// and Slice the time-of-day slice whose cost model answered (the
	// departure slice for a time-expanded answer).
	Depart float64 `json:"depart_s,omitempty"`
	Slice  int     `json:"slice,omitempty"`
	// TimeExpanded marks an answer computed with per-extension slice
	// lookup; SliceSeq is then the per-edge slice sequence of the
	// returned path (slice_seq[i] costed path[i]).
	TimeExpanded    bool           `json:"time_expanded,omitempty"`
	SliceSeq        []int          `json:"slice_seq,omitempty"`
	Found           bool           `json:"found"`
	Complete        bool           `json:"complete"`
	Prob            float64        `json:"prob"`
	MeanSeconds     float64        `json:"mean_s,omitempty"`
	Path            []graph.EdgeID `json:"path,omitempty"`
	Expansions      int            `json:"expansions,omitempty"`
	GeneratedLabels int            `json:"generated_labels,omitempty"`
	Convolved       int            `json:"convolved,omitempty"`
	Estimated       int            `json:"estimated,omitempty"`
	// ModelEpoch is the model generation that computed the answer, so
	// clients can correlate responses with hot swaps.
	ModelEpoch uint64  `json:"model_epoch"`
	RuntimeMS  float64 `json:"runtime_ms"`
	Cached     bool    `json:"cached"`
}

// fromEntry fills the answer from a cached complete route: the exact
// on-time probability for this request's budget is recomputed from the
// entry's distribution.
func (resp *routeResponse) fromEntry(e routeEntry) {
	resp.Found, resp.Complete, resp.Cached = true, true, true
	resp.Prob = e.dist.CDF(resp.Budget)
	resp.MeanSeconds = e.dist.Mean()
	resp.Path = e.path
	resp.ModelEpoch = e.epoch
}

// fromResult fills the answer from a fresh search, whose slice and
// epoch supersede the ones observed before it ran.
func (resp *routeResponse) fromResult(res *routing.Result) {
	resp.Slice = res.Slice
	resp.SliceSeq = res.SliceSeq
	resp.Found = res.Found
	resp.Complete = res.Complete
	resp.Prob = res.Prob
	resp.Path = res.Path
	resp.Expansions = res.Expansions
	resp.GeneratedLabels = res.GeneratedLabels
	resp.Convolved = res.NumConvolved
	resp.Estimated = res.NumEstimated
	resp.ModelEpoch = res.ModelEpoch
	if res.Dist != nil {
		resp.MeanSeconds = res.Dist.Mean()
	}
}

func (s *Server) routeKeyOf(src, dst graph.VertexID, budget float64) routeKey {
	return routeKey{src: src, dst: dst, bucket: s.bucketOf(budget)}
}

// storeResult caches a complete found classic answer in its slice's
// cache, tagged with the epoch of the model that computed it. Cut-off
// and time-expanded results are never stored (see routeCommon).
func (s *Server) storeResult(src, dst graph.VertexID, opts routing.Options, res *routing.Result) {
	if !opts.TimeExpanded && res.Found && res.Complete {
		s.routes[res.Slice].PutAt(s.routeKeyOf(src, dst, opts.Budget),
			routeEntry{path: res.Path, dist: *res.Dist, epoch: res.ModelEpoch}, res.ModelEpoch)
	}
}

func (s *Server) handleRoute(w http.ResponseWriter, r *http.Request) error {
	return s.routeCommon(w, r, 0)
}

func (s *Server) handleRouteAnytime(w http.ResponseWriter, r *http.Request) error {
	limitMS, err := httpsvc.IntParam(r, "limit_ms", 1000)
	if err != nil {
		return err
	}
	if limitMS <= 0 {
		return httpsvc.BadRequest("limit_ms: must be positive")
	}
	limit := time.Duration(limitMS) * time.Millisecond
	if limit > s.cfg.RequestTimeout {
		limit = s.cfg.RequestTimeout
	}
	return s.routeCommon(w, r, limit)
}

// routeCommon answers a budget-routing query; limit > 0 marks an
// anytime request. The departure parameter selects the time-of-day
// slice (and thus the per-slice cache and cost model) before anything
// else happens. Cache protocol: complete found results are stored in
// the slice's cache under (source, dest, budget bucket) holding the
// path and its full distribution; a hit — including for anytime
// requests, since a proven optimum is at least as good as any cutoff
// search — recomputes the exact probability for the request's budget
// from the cached distribution. Incomplete (cut-off) results are never
// stored.
//
// Hot-swap protocol: the slice cache's validity epoch is advanced to
// that slice's serving epoch at every request, and entries are tagged
// with the slice epoch of the model that computed them
// (RouteResult.ModelEpoch — the search may already run on a newer
// model than the one observed at request start). A hit therefore
// always carries the current slice generation's answer: once a swap of
// *this* slice bumps its epoch, every pre-swap entry is invalid and
// the next request recomputes — while the other slices' caches stay
// warm.
//
// time_expanded=true requests bypass the cache in both directions: a
// time-expanded answer varies continuously with the exact departure
// (the point where the trip crosses a slice boundary moves with it),
// so slice-keyed entries would conflate genuinely different answers —
// and the answer may consult several slices' models, so it could only
// be validated against the global epoch, not the slice epoch the cache
// uses. Time-expanded responses therefore always recompute and report
// cached=false.
func (s *Server) routeCommon(w http.ResponseWriter, r *http.Request, limit time.Duration) error {
	start := time.Now()
	src, dst, err := s.endpointsParam(r)
	if err != nil {
		return err
	}
	budget, err := s.budgetParam(r)
	if err != nil {
		return err
	}
	depart, err := s.departParam(r)
	if err != nil {
		return err
	}
	expanded, err := httpsvc.BoolParam(r, "time_expanded", false)
	if err != nil {
		return err
	}

	// ctx carries the request's root span when this request was sampled
	// (see httpsvc); traceID doubles as the sampling flag — "" means
	// every span call below is a free no-op.
	ctx := r.Context()
	traceID := obs.SpanFromContext(ctx).TraceID()

	_, ssp := obs.StartSpan(ctx, "slice-select")
	slice := s.backend.SliceOf(depart)
	epoch := s.backend.SliceEpoch(slice)
	if expanded {
		epoch = s.backend.ModelEpoch()
	}
	cache := s.routes[slice]
	cache.AdvanceEpoch(s.backend.SliceEpoch(slice))
	if ssp != nil {
		ssp.SetInt("source", int64(src))
		ssp.SetInt("dest", int64(dst))
		ssp.SetFloat("budget_s", budget)
		ssp.SetFloat("depart_s", depart)
		ssp.SetInt("slice", int64(slice))
		ssp.SetInt("epoch", int64(epoch))
		ssp.SetBool("time_expanded", expanded)
		ssp.End()
	}

	// out lives on the stack: it is filled, appended into a pooled
	// buffer by writeAppended, and gone.
	out := routeResponse{Source: src, Dest: dst, Budget: budget, Depart: depart, Slice: slice, TimeExpanded: expanded}
	_, csp := obs.StartSpan(ctx, "cache-lookup")
	var entry routeEntry
	hit := false
	if !expanded {
		entry, hit = cache.Get(s.routeKeyOf(src, dst, budget))
	}
	if csp != nil {
		csp.SetBool("hit", hit)
		if !hit {
			csp.SetBool("bypass", expanded) // time-expanded: cache not consulted
		}
		csp.End()
	}

	markCache(w, hit)
	var res *routing.Result
	if hit {
		out.fromEntry(entry)
	} else {
		opts := routing.Options{Budget: budget, Departure: depart, TimeExpanded: expanded, MaxDuration: s.cfg.RequestTimeout}
		if limit > 0 {
			opts.MaxDuration = limit
		}
		res, err = s.backend.RouteCtx(ctx, src, dst, opts)
		if errors.Is(err, routing.ErrUnreachable) {
			out.Complete, out.ModelEpoch, out.RuntimeMS = true, epoch, msSince(start)
			return writeAppended(w, out.appendJSON)
		}
		if err != nil {
			return err
		}
		s.storeResult(src, dst, opts, res)
		out.fromResult(res)
	}

	lat := time.Since(start)
	s.routeLat.observe(out.Slice, hit, expanded, lat, traceID)
	if lat >= s.cfg.SlowQueryThreshold {
		s.logSlowQuery(w, limit > 0, &out, res, hit, lat)
	}
	out.RuntimeMS = msSince(start)
	_, esp := obs.StartSpan(ctx, "encode")
	encErr := writeAppended(w, out.appendJSON)
	esp.End()
	return encErr
}

// logSlowQuery writes the slow_query line of one answered request: the
// query, the outcome and — for a fresh search (res non-nil) — the
// pruning and arena counters the response does not carry. request_id is
// the X-Request-ID the chassis stamped on w, so the line joins to the
// client's copy of the response.
func (s *Server) logSlowQuery(w http.ResponseWriter, anytime bool, out *routeResponse, res *routing.Result, hit bool, lat time.Duration) {
	endpoint := "/route"
	if anytime {
		endpoint = "/route/anytime"
	}
	if res == nil {
		res = &routing.Result{}
	}
	s.cfg.TraceLogger.LogAttrs(context.Background(), slog.LevelWarn, "slow_query",
		slog.String("request_id", httpsvc.HeaderValue(w.Header(), httpsvc.HeaderRequestID)),
		slog.String("endpoint", endpoint),
		slog.Int64("src", int64(out.Source)),
		slog.Int64("dst", int64(out.Dest)),
		slog.Float64("budget_s", out.Budget),
		slog.Float64("depart_s", out.Depart),
		slog.Int("slice", out.Slice),
		slog.Uint64("epoch", out.ModelEpoch),
		slog.Bool("time_expanded", out.TimeExpanded),
		slog.Bool("cache_hit", hit),
		slog.Bool("found", out.Found),
		slog.Bool("complete", out.Complete),
		slog.Float64("prob", out.Prob),
		slog.Int("expansions", out.Expansions),
		slog.Int("generated_labels", out.GeneratedLabels),
		slog.Int("pruned_potential", res.PrunedPotential),
		slog.Int("pruned_pivot", res.PrunedPivot),
		slog.Int("pruned_dominance", res.PrunedDominance),
		slog.Int("convolved", out.Convolved),
		slog.Int("estimated", out.Estimated),
		slog.Int64("arena_bytes", res.ArenaBytes),
		slog.Float64("latency_ms", float64(lat)/float64(time.Millisecond)),
	)
}

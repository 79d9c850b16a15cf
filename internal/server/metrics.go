package server

import (
	"strconv"
	"time"

	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// routeLatencyMetrics is the route-serving latency broken down the way
// a dashboard wants to slice it: per time-of-day slice, cache hit vs
// miss, classic vs time-expanded. All children are pre-registered and
// held in an array indexed [slice][hit][expanded], so the per-request
// lookup is two bounds checks — no map, no label rendering.
type routeLatencyMetrics struct {
	h [][2][2]*obs.Histogram
}

func newRouteLatencyMetrics(reg *obs.Registry, slices int) *routeLatencyMetrics {
	if slices < 1 {
		slices = 1
	}
	m := &routeLatencyMetrics{h: make([][2][2]*obs.Histogram, slices)}
	caches := [2]string{"miss", "hit"}
	expanded := [2]string{"false", "true"}
	for s := range m.h {
		for hi, hv := range caches {
			for ei, ev := range expanded {
				m.h[s][hi][ei] = reg.Histogram("route_latency_seconds",
					"Route request latency by slice, cache outcome and time-expanded mode.",
					obs.LatencyBuckets(),
					obs.L("slice", strconv.Itoa(s)), obs.L("cache", hv), obs.L("time_expanded", ev))
			}
		}
	}
	return m
}

// observe records one route request's latency. When the request was
// sampled (traceID != "") the landing bucket also remembers the trace
// ID as its exemplar, so a latency spike on /metrics links straight to
// a span tree in /debug/traces; unsampled requests take the histogram's
// allocation-free path. Out-of-range slices clamp (defensive; the
// serving path always passes a valid slice).
func (m *routeLatencyMetrics) observe(slice int, hit, expanded bool, d time.Duration, traceID string) {
	if m == nil {
		return
	}
	if slice < 0 {
		slice = 0
	}
	if slice >= len(m.h) {
		slice = len(m.h) - 1
	}
	hi, ei := 0, 0
	if hit {
		hi = 1
	}
	if expanded {
		ei = 1
	}
	m.h[slice][hi][ei].ObserveWithExemplar(d.Seconds(), traceID)
}

// initMetrics registers the server-level scrape-time series (uptime
// and the in-flight gauge are the chassis's): the two-level epoch
// series (the global model epoch plus one gauge per slice — a
// dashboard sees exactly which slice hot-swapped and when), the
// degraded flag, the routing pool's arena footprint, and the per-slice
// cache counters, all read lazily at scrape time from the structures
// that already own the values.
func (s *Server) initMetrics(k int) {
	reg := s.cfg.Metrics
	s.routeLat = newRouteLatencyMetrics(reg, k)
	s.runtime = obs.RegisterRuntimeMetrics(reg)
	reg.GaugeFunc("model_epoch",
		"Global model generation: advances on every slice hot swap.",
		func() float64 { return float64(s.backend.ModelEpoch()) })
	for i := 0; i < k; i++ {
		slice := i
		reg.GaugeFunc("slice_epoch",
			"Per-slice serving generation: the global epoch at which this slice last swapped.",
			func() float64 { return float64(s.backend.SliceEpoch(slice)) },
			obs.L("slice", strconv.Itoa(slice)))
	}
	reg.GaugeFunc("degraded",
		"1 while any slice's drift monitor has fired without a rebuild swapping since.",
		func() float64 {
			if s.cfg.Ingestor != nil && s.cfg.Ingestor.Degraded() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("arena_bytes_inuse",
		"Retained bytes of search arenas checked out by in-flight queries.",
		func() float64 { return float64(routing.ArenaBytesInUse()) })

	registerCache := func(stats func() CacheStats, labels ...obs.Label) {
		reg.CounterFunc("cache_hits_total", "Cache hits, by cache family and slice.",
			func() float64 { return float64(stats().Hits) }, labels...)
		reg.CounterFunc("cache_misses_total", "Cache misses, by cache family and slice.",
			func() float64 { return float64(stats().Misses) }, labels...)
		reg.CounterFunc("cache_evictions_total", "LRU evictions, by cache family and slice.",
			func() float64 { return float64(stats().Evictions) }, labels...)
		reg.CounterFunc("cache_invalidations_total",
			"Entries discarded for a stale epoch tag (hot-swap footprint), by cache family and slice.",
			func() float64 { return float64(stats().Invalidations) }, labels...)
		reg.GaugeFunc("cache_entries", "Current cache occupancy, by cache family and slice.",
			func() float64 { return float64(stats().Entries) }, labels...)
	}
	for i := 0; i < k; i++ {
		slice := strconv.Itoa(i)
		registerCache(s.routes[i].Stats, obs.L("cache", "route"), obs.L("slice", slice))
	}
}

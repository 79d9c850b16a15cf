package server

import (
	"net/http"

	"stochroute/internal/httpsvc"
	"stochroute/internal/ingest"
	"stochroute/internal/routing"
)

type healthResponse struct {
	Status     string `json:"status"`
	Vertices   int    `json:"vertices"`
	Edges      int    `json:"edges"`
	ModelEpoch uint64 `json:"model_epoch"`
	// Slices is the time-of-day slice count of the serving cost model;
	// SliceEpochs is each slice's serving generation, indexed by slice.
	Slices      int      `json:"slices"`
	SliceEpochs []uint64 `json:"slice_epochs"`
	UptimeS     float64  `json:"uptime_s"`
	// Degraded is true while any slice's drift monitor has fired but no
	// rebuild has swapped that slice since: the server still answers,
	// knowingly on a stale model. Always false without an ingestor.
	Degraded bool `json:"degraded"`
	// Replica is this instance's fleet identity (Config.ReplicaID);
	// omitted for a standalone server.
	Replica string `json:"replica,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) error {
	g := s.backend.Graph()
	return httpsvc.WriteJSON(w, &healthResponse{
		Status:      "ok",
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		ModelEpoch:  s.backend.ModelEpoch(),
		Slices:      s.backend.NumSlices(),
		SliceEpochs: s.backend.SliceEpochs(),
		UptimeS:     s.svc.Uptime().Seconds(),
		Degraded:    s.cfg.Ingestor != nil && s.cfg.Ingestor.Degraded(),
		Replica:     s.cfg.ReplicaID,
	})
}

type statsResponse struct {
	UptimeS    float64 `json:"uptime_s"`
	Inflight   int64   `json:"inflight"`
	ModelEpoch uint64  `json:"model_epoch"`
	// Slices is the time-of-day slice count; SliceEpochs each slice's
	// serving generation (a per-slice hot swap advances exactly one
	// entry).
	Slices      int                              `json:"slices"`
	SliceEpochs []uint64                         `json:"slice_epochs"`
	Endpoints   map[string]httpsvc.EndpointStats `json:"endpoints"`
	// RouteCache aggregates across slices; the per-slice breakdown
	// shows which slice's cache a swap invalidated.
	RouteCache       CacheStats   `json:"route_cache"`
	RouteCacheSlices []CacheStats `json:"route_cache_slices,omitempty"`
	// ArenaBytesInUse is the retained footprint of search arenas
	// currently checked out by in-flight queries (the same value
	// /metrics exports as arena_bytes_inuse).
	ArenaBytesInUse int64 `json:"arena_bytes_inuse"`
	// Ingest reports the write path's counters (absent when ingestion
	// is disabled), including its per-slice drift/rebuild breakdown;
	// LastSwapUnixMS within it is the time of the last model hot swap.
	Ingest *ingest.Status `json:"ingest,omitempty"`
	// Runtime is the Go runtime's health snapshot — the same sampler
	// that backs the go_* series on /metrics.
	Runtime runtimeStatsResponse `json:"runtime"`
}

// runtimeStatsResponse is the /stats view of the Go runtime sampler.
type runtimeStatsResponse struct {
	Goroutines     int     `json:"goroutines"`
	HeapInuseBytes uint64  `json:"heap_inuse_bytes"`
	GCPauseTotalS  float64 `json:"gc_pause_total_s"`
	GCCycles       uint32  `json:"gc_cycles"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
}

// sumCacheStats aggregates per-slice cache stats; Epoch reports the
// newest slice epoch.
func sumCacheStats(caches []*ShardedLRU[routeKey, routeEntry]) (total CacheStats, slices []CacheStats) {
	slices = make([]CacheStats, len(caches))
	for i, c := range caches {
		s := c.Stats()
		slices[i] = s
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.Evictions += s.Evictions
		total.Invalidations += s.Invalidations
		total.Entries += s.Entries
		total.Capacity += s.Capacity
		if s.Epoch > total.Epoch {
			total.Epoch = s.Epoch
		}
	}
	return total, slices
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) error {
	routeStats, routeSlices := sumCacheStats(s.routes)
	out := &statsResponse{
		UptimeS:         s.svc.Uptime().Seconds(),
		Inflight:        s.svc.Inflight(),
		ModelEpoch:      s.backend.ModelEpoch(),
		Slices:          s.backend.NumSlices(),
		SliceEpochs:     s.backend.SliceEpochs(),
		Endpoints:       s.svc.EndpointStats(),
		RouteCache:      routeStats,
		ArenaBytesInUse: routing.ArenaBytesInUse(),
	}
	if s.backend.NumSlices() > 1 {
		out.RouteCacheSlices = routeSlices
	}
	if s.cfg.Ingestor != nil {
		st := s.cfg.Ingestor.Status()
		out.Ingest = &st
	}
	out.Runtime = runtimeStatsResponse{
		Goroutines:     s.runtime.Goroutines(),
		HeapInuseBytes: s.runtime.HeapInuseBytes(),
		GCPauseTotalS:  s.runtime.GCPauseTotalSeconds(),
		GCCycles:       s.runtime.GCCycles(),
		GOMAXPROCS:     s.runtime.GOMAXPROCS(),
	}
	return httpsvc.WriteJSON(w, out)
}

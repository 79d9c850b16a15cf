package server

import (
	"errors"
	"net/http"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
	"stochroute/internal/routing"
)

type alternativeResponse struct {
	Path        []graph.EdgeID `json:"path"`
	MeanSeconds float64        `json:"mean_s"`
	MinSeconds  float64        `json:"min_s"`
	Prob        float64        `json:"prob,omitempty"`
}

type alternativesResponse struct {
	Source    graph.VertexID        `json:"source"`
	Dest      graph.VertexID        `json:"dest"`
	Horizon   float64               `json:"horizon_s"`
	Routes    []alternativeResponse `json:"routes"`
	RuntimeMS float64               `json:"runtime_ms"`
}

func (s *Server) handleAlternatives(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	src, dst, err := s.endpointsParam(r)
	if err != nil {
		return err
	}
	horizon, err := httpsvc.FloatParam(r, "horizon", 0)
	if err != nil {
		return err
	}
	if horizon <= 0 {
		return httpsvc.BadRequest("horizon: must be a positive number of seconds")
	}
	maxRoutes, err := httpsvc.IntParam(r, "max", 8)
	if err != nil {
		return err
	}
	if maxRoutes <= 0 || maxRoutes > maxAlternatives {
		return httpsvc.BadRequest("max: must be in [1, %d]", maxAlternatives)
	}
	// budget is optional: when present each skyline member also reports
	// its on-time probability at that budget.
	budget, err := httpsvc.FloatParam(r, "budget", 0)
	if err != nil {
		return err
	}
	routes, err := s.backend.AlternativeRoutes(src, dst, horizon, maxRoutes)
	if errors.Is(err, routing.ErrUnreachable) {
		return httpsvc.WriteJSON(w, &alternativesResponse{
			Source: src, Dest: dst, Horizon: horizon,
			Routes: []alternativeResponse{}, RuntimeMS: msSince(start),
		})
	}
	if err != nil {
		return err
	}
	out := &alternativesResponse{
		Source:  src,
		Dest:    dst,
		Horizon: horizon,
		Routes:  make([]alternativeResponse, 0, len(routes)),
	}
	for _, rt := range routes {
		ar := alternativeResponse{
			Path:        rt.Path,
			MeanSeconds: rt.Dist.Mean(),
			MinSeconds:  rt.Dist.Min,
		}
		if budget > 0 {
			ar.Prob = rt.Dist.CDF(budget)
		}
		out.Routes = append(out.Routes, ar)
	}
	out.RuntimeMS = msSince(start)
	return httpsvc.WriteJSON(w, out)
}

type pairSumResponse struct {
	First       graph.EdgeID `json:"first"`
	Second      graph.EdgeID `json:"second"`
	Depart      float64      `json:"depart_s,omitempty"`
	Slice       int          `json:"slice,omitempty"`
	Min         float64      `json:"min_s"`
	Width       float64      `json:"width_s"`
	P           []float64    `json:"p"`
	MeanSeconds float64      `json:"mean_s"`
}

func (s *Server) handlePairSum(w http.ResponseWriter, r *http.Request) error {
	g := s.backend.Graph()
	first, err := httpsvc.IntParam(r, "first", -1)
	if err != nil {
		return err
	}
	second, err := httpsvc.IntParam(r, "second", -1)
	if err != nil {
		return err
	}
	if first < 0 || first >= g.NumEdges() || second < 0 || second >= g.NumEdges() {
		return httpsvc.BadRequest("first/second: edge IDs must be in [0, %d)", g.NumEdges())
	}
	depart, err := s.departParam(r)
	if err != nil {
		return err
	}
	// One initial histogram and one extension under the departure
	// slice's model: cheap enough to compute per request.
	slice := s.backend.SliceOf(depart)
	h, err := s.backend.PairSumAt(slice, graph.EdgeID(first), graph.EdgeID(second))
	if err != nil {
		return httpsvc.BadRequest("%v", err)
	}
	return httpsvc.WriteJSON(w, &pairSumResponse{
		First:       graph.EdgeID(first),
		Second:      graph.EdgeID(second),
		Depart:      depart,
		Slice:       slice,
		Min:         h.Min,
		Width:       h.Width,
		P:           h.P,
		MeanSeconds: h.Mean(),
	})
}

type sampleQuery struct {
	Source      graph.VertexID `json:"source"`
	Dest        graph.VertexID `json:"dest"`
	DistKm      float64        `json:"dist_km"`
	OptimisticS float64        `json:"optimistic_s"`
	// Depart echoes the request's depart parameter (with its slice), so
	// a load generator can sample one workload per time-of-day slice
	// and replay the queries against the matching slice.
	Depart float64 `json:"depart_s,omitempty"`
	Slice  int     `json:"slice,omitempty"`
}

type sampleResponse struct {
	Queries []sampleQuery `json:"queries"`
}

// handleSample draws routing queries from the backend's workload
// generator, annotated with their optimistic travel time so clients
// (cmd/loadgen) can derive realistic budgets without the graph.
func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) error {
	n, err := httpsvc.IntParam(r, "n", 32)
	if err != nil {
		return err
	}
	depart, err := s.departParam(r)
	if err != nil {
		return err
	}
	if n <= 0 || n > maxSample {
		return httpsvc.BadRequest("n: must be in [1, %d]", maxSample)
	}
	loKm, err := httpsvc.FloatParam(r, "lo_km", 0.5)
	if err != nil {
		return err
	}
	hiKm, err := httpsvc.FloatParam(r, "hi_km", 2.0)
	if err != nil {
		return err
	}
	if loKm < 0 || hiKm <= loKm {
		return httpsvc.BadRequest("lo_km/hi_km: want 0 <= lo_km < hi_km")
	}
	seed, err := httpsvc.IntParam(r, "seed", 1)
	if err != nil {
		return err
	}
	qs, err := s.backend.SampleQueries(loKm, hiKm, n, uint64(seed))
	if err != nil && len(qs) == 0 {
		return httpsvc.BadRequest("%v", err)
	}
	out := &sampleResponse{Queries: make([]sampleQuery, 0, len(qs))}
	for _, q := range qs {
		opt, err := s.backend.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			continue // unreachable pair; not a useful load query
		}
		out.Queries = append(out.Queries, sampleQuery{
			Source:      q.Source,
			Dest:        q.Dest,
			DistKm:      q.DistKm,
			OptimisticS: opt,
			Depart:      depart,
			Slice:       s.backend.SliceOf(depart),
		})
	}
	return httpsvc.WriteJSON(w, out)
}

package server

import (
	"net/http"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
)

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
	Source  graph.VertexID `json:"source"`
	Dest    graph.VertexID `json:"dest"`
	DistKm  float64        `json:"dist_km"`
	BudgetS float64        `json:"budget_s"`
	// Depart echoes the request's depart parameter (with its slice), so
	// a load generator can sample one workload per time-of-day slice
	// and replay the queries against the matching slice.
	Depart float64 `json:"depart_s,omitempty"`
	Slice  int     `json:"slice,omitempty"`
}

type sampleResponse struct {
	Queries []sampleQuery `json:"queries"`
}

// sampleBudgetQuantile is the quantile of the mean-cost route's travel
// time that /sample's budget_s reads (Backend.QuantileBudget).
const sampleBudgetQuantile = 0.8

// handleSample draws routing queries from the backend's workload
// generator, each with its default deadline at the request's departure
// (budget_s, the sampleBudgetQuantile of Backend.QuantileBudget), so
// clients (cmd/loadgen) can send realistic budgets without the graph.
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
		budget, err := s.backend.QuantileBudget(depart, q.Source, q.Dest, sampleBudgetQuantile)
		if err != nil {
			continue // unreachable pair; not a useful load query
		}
		out.Queries = append(out.Queries, sampleQuery{
			Source:  q.Source,
			Dest:    q.Dest,
			DistKm:  q.DistKm,
			BudgetS: budget,
			Depart:  depart,
			Slice:   s.backend.SliceOf(depart),
		})
	}
	return httpsvc.WriteJSON(w, out)
}

package server

import (
	"net/http"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
	"stochroute/internal/traj"
)

// ingestTrajectory is one trip in a POST /ingest body: a contiguous
// edge sequence with the observed per-edge travel times and an
// optional departure timestamp (seconds since midnight, default 0)
// that buckets the trip into its time-of-day slice.
type ingestTrajectory struct {
	Edges  []graph.EdgeID `json:"edges"`
	Times  []float64      `json:"times"`
	Depart float64        `json:"depart"`
}

type ingestRequest struct {
	Trajectories []ingestTrajectory `json:"trajectories"`
}

type ingestResponse struct {
	Accepted   int    `json:"accepted"`
	Rejected   int    `json:"rejected"`
	ModelEpoch uint64 `json:"model_epoch"`
	Rebuilding bool   `json:"rebuilding"`
}

// handleIngest feeds a trajectory batch to the ingestion subsystem.
// Invalid trajectories are counted per batch, never fatal; the
// response reports the split plus the current model epoch so a
// streaming client (cmd/replay) can watch its data take effect.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) error {
	var req ingestRequest
	if err := httpsvc.DecodeJSON(w, r, s.cfg.MaxIngestBytes, &req); err != nil {
		return err
	}
	if len(req.Trajectories) == 0 {
		return httpsvc.BadRequest("trajectories: empty batch")
	}
	trs := make([]traj.Trajectory, len(req.Trajectories))
	for i, tr := range req.Trajectories {
		trs[i] = traj.Trajectory{Edges: tr.Edges, Times: tr.Times, Departure: tr.Depart}
	}
	accepted, rejected := s.cfg.Ingestor.IngestCtx(r.Context(), trs)
	st := s.cfg.Ingestor.Status()
	return httpsvc.WriteJSON(w, &ingestResponse{
		Accepted:   accepted,
		Rejected:   rejected,
		ModelEpoch: s.backend.ModelEpoch(),
		Rebuilding: st.Rebuilding,
	})
}

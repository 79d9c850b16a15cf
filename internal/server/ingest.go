package server

import (
	"net/http"

	"stochroute/internal/httpsvc"
	"stochroute/internal/ingestwire"
	"stochroute/internal/traj"
)

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
	trs, err := readIngest(r, s.cfg.MaxIngestBytes)
	if err != nil {
		return err
	}
	if len(trs) == 0 {
		return httpsvc.BadRequest("trajectories: empty batch")
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

// readIngest reads an /ingest body once, capped at maxBytes, and walks
// it into trips (ingestwire.Scan).
func readIngest(r *http.Request, maxBytes int64) ([]traj.Trajectory, error) {
	body, err := httpsvc.ReadBody(r, maxBytes)
	if err != nil {
		return nil, err
	}
	return ingestwire.Scan(body)
}

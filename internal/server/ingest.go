package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
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
// it into trips.
func readIngest(r *http.Request, maxBytes int64) ([]traj.Trajectory, error) {
	body, err := httpsvc.ReadBody(r, maxBytes)
	if err != nil {
		return nil, err
	}
	return scanIngest(body)
}

// scanIngest walks an /ingest body in place, once json.Valid has
// accepted it, and builds its trips directly:
//
//	{"trajectories": [{"edges": [...], "times": [...], "depart": 28920}, ...]}
//
// It accepts exactly what a json.Decoder with DisallowUnknownFields
// accepts of the body as {trajectories: [{edges []graph.EdgeID, times
// []float64, depart float64}]}, and leaves the trips that decode, copied
// into traj.Trajectory, would hold (FuzzScanIngest holds it to that
// decode): unknown fields are refused at both levels, keys match under
// case folding and the last repeated key wins, a null field or element
// keeps what it held (so a null trip is an empty one, which the
// ingestor rejects), and a repeated array is decoded into the one
// before it. Numbers are parsed with the strconv calls encoding/json
// makes: an edge ID is an integer literal in int32 range, a time or a
// departure a finite float64. Every trip owns its Edges and Times, one
// allocation each, sized by counting the array first; nothing is shared
// across trips, so a trip the ingestor keeps pins nothing else.
func scanIngest(body []byte) ([]traj.Trajectory, error) {
	if !json.Valid(body) {
		return nil, httpsvc.BadRequest("invalid JSON body: %v", httpsvc.SyntaxError(body))
	}
	c := httpsvc.NewCursor(body)
	isObject, err := c.Open('{')
	if err != nil {
		return nil, httpsvc.BadRequest("invalid JSON body: %v", err)
	}
	var trs []traj.Trajectory
	for isObject && c.More() {
		k := c.Key()
		if !httpsvc.KeyIs(k, "trajectories") {
			return nil, httpsvc.BadRequest("invalid JSON body: unknown field %s", k)
		}
		if trs, err = scanArray(&c, trs, scanTrip); err != nil {
			return nil, httpsvc.BadRequest("invalid JSON body: trajectories%v", err)
		}
	}
	return trs, nil
}

// scanTrip walks one element of the trajectories array into t.
func scanTrip(c *httpsvc.Cursor, t *traj.Trajectory) error {
	isObject, err := c.Open('{')
	if err != nil {
		return fmt.Errorf(": %v", err)
	}
	for isObject && c.More() {
		k := c.Key()
		switch {
		case httpsvc.KeyIs(k, "edges"):
			if t.Edges, err = scanArray(c, t.Edges, scanEdge); err != nil {
				return fmt.Errorf(".edges%v", err)
			}
		case httpsvc.KeyIs(k, "times"):
			if t.Times, err = scanArray(c, t.Times, scanFloat); err != nil {
				return fmt.Errorf(".times%v", err)
			}
		case httpsvc.KeyIs(k, "depart"):
			if err = scanFloat(c, &t.Departure); err != nil {
				return fmt.Errorf(".depart%v", err)
			}
		default:
			return fmt.Errorf(": unknown field %s", k)
		}
	}
	return nil
}

// scanArray walks the array at the cursor into dst as encoding/json
// decodes an array into a slice that already holds dst: element i into
// dst[i], reusing dst's array when the elements fit in its capacity and
// otherwise one array of exactly their number, which starts as a copy
// of all of dst's; an empty array is an empty slice and null a nil one.
// An error begins with the failing element's index.
func scanArray[T any](c *httpsvc.Cursor, dst []T, elem func(*httpsvc.Cursor, *T) error) ([]T, error) {
	switch c.Peek() {
	case 'n':
		c.Value()
		return nil, nil
	case '[':
	default:
		return nil, fmt.Errorf(": want an array, got %s", httpsvc.Kind(c.Value()))
	}
	n := c.Len()
	switch {
	case n == 0:
		dst = []T{}
	case n > cap(dst):
		grown := make([]T, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	default:
		dst = dst[:n]
	}
	c.Open('[')
	for i := 0; c.More(); i++ {
		if err := elem(c, &dst[i]); err != nil {
			return nil, fmt.Errorf("[%d]%v", i, err)
		}
	}
	return dst, nil
}

// scanEdge reads an edge ID: null keeps *id, an integer literal in
// int32 range replaces it, anything else is an error.
func scanEdge(c *httpsvc.Cursor, id *graph.EdgeID) error {
	v := c.Value()
	if v[0] == 'n' {
		return nil
	}
	n, ok := httpsvc.Integer(v)
	if !ok || n < math.MinInt32 || n > math.MaxInt32 {
		return fmt.Errorf(": want an int32 edge ID, got %s", httpsvc.Describe(v))
	}
	*id = graph.EdgeID(n)
	return nil
}

// scanFloat reads a time or a departure: null keeps *f, a number
// strconv.ParseFloat reads as a finite float64 replaces it, anything
// else is an error.
func scanFloat(c *httpsvc.Cursor, f *float64) error {
	v := c.Value()
	if v[0] == 'n' {
		return nil
	}
	x, err := strconv.ParseFloat(string(v), 64)
	if err != nil {
		return fmt.Errorf(": want a finite float64, got %s", httpsvc.Describe(v))
	}
	*f = x
	return nil
}

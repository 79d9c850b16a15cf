// Package replay streams a trajectory set into a running routing
// service's POST /ingest endpoint at a configurable rate — the client
// half of the online-learning loop. cmd/replay wraps it as a CLI; the
// end-to-end tests drive it in-process to exercise the full
// ingest → drift → rebuild → hot-swap pipeline over real HTTP.
package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/traj"
)

// Options configures one streaming run.
type Options struct {
	// BaseURL locates the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Rate is the target trajectories per second across the whole run
	// (0 = as fast as the server accepts).
	Rate float64
	// Batch is the number of trajectories per POST (default 64).
	Batch int
	// LogW receives progress lines (nil silences them).
	LogW io.Writer
}

// Report summarises a streaming run.
type Report struct {
	Sent     int
	Accepted int
	Rejected int
	Batches  int
	// FirstEpoch and LastEpoch are the server's model epochs observed
	// on the first and last acknowledgement — a difference means the
	// stream triggered at least one hot swap while it ran.
	FirstEpoch uint64
	LastEpoch  uint64
	Elapsed    time.Duration
}

// wireTrajectory mirrors the server's /ingest trajectory schema.
type wireTrajectory struct {
	Edges  []graph.EdgeID `json:"edges"`
	Times  []float64      `json:"times"`
	Depart float64        `json:"depart,omitempty"`
}

type wireRequest struct {
	Trajectories []wireTrajectory `json:"trajectories"`
}

type wireResponse struct {
	Accepted   int    `json:"accepted"`
	Rejected   int    `json:"rejected"`
	ModelEpoch uint64 `json:"model_epoch"`
	Rebuilding bool   `json:"rebuilding"`
}

// Stream posts trs to the service in batches, pacing them to
// Options.Rate, until the set is exhausted or ctx is cancelled. It
// returns the partial report alongside any error.
func Stream(ctx context.Context, trs []traj.Trajectory, opts Options) (*Report, error) {
	if opts.Batch <= 0 {
		opts.Batch = 64
	}
	client := &http.Client{Timeout: 30 * time.Second}
	logf := func(string, ...any) {}
	if opts.LogW != nil {
		logf = func(format string, args ...any) { fmt.Fprintf(opts.LogW, format+"\n", args...) }
	}

	var interval time.Duration
	if opts.Rate > 0 {
		interval = time.Duration(float64(opts.Batch) / opts.Rate * float64(time.Second))
	}

	rep := &Report{}
	start := time.Now()
	next := start
	for lo := 0; lo < len(trs); lo += opts.Batch {
		if err := ctx.Err(); err != nil {
			rep.Elapsed = time.Since(start)
			return rep, err
		}
		hi := lo + opts.Batch
		if hi > len(trs) {
			hi = len(trs)
		}
		batch := make([]wireTrajectory, hi-lo)
		for i, tr := range trs[lo:hi] {
			batch[i] = wireTrajectory{Edges: tr.Edges, Times: tr.Times, Depart: tr.Departure}
		}
		ack, err := postBatch(ctx, client, opts.BaseURL, wireRequest{Trajectories: batch})
		if err != nil {
			rep.Elapsed = time.Since(start)
			return rep, fmt.Errorf("replay: batch at trajectory %d: %w", lo, err)
		}
		rep.Sent += hi - lo
		rep.Accepted += ack.Accepted
		rep.Rejected += ack.Rejected
		rep.Batches++
		if rep.Batches == 1 {
			rep.FirstEpoch = ack.ModelEpoch
		}
		if ack.ModelEpoch != rep.LastEpoch && rep.Batches > 1 {
			logf("replay: server model epoch now %d (was %d)", ack.ModelEpoch, rep.LastEpoch)
		}
		rep.LastEpoch = ack.ModelEpoch

		if interval > 0 {
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					rep.Elapsed = time.Since(start)
					return rep, ctx.Err()
				}
			}
		}
	}
	rep.Elapsed = time.Since(start)
	logf("replay: streamed %d trajectories in %d batches over %s (%d accepted, %d rejected); model epoch %d -> %d",
		rep.Sent, rep.Batches, rep.Elapsed.Round(time.Millisecond),
		rep.Accepted, rep.Rejected, rep.FirstEpoch, rep.LastEpoch)
	return rep, nil
}

func postBatch(ctx context.Context, client *http.Client, baseURL string, body wireRequest) (*wireResponse, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/ingest", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	var ack wireResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return nil, fmt.Errorf("invalid acknowledgement: %w", err)
	}
	return &ack, nil
}

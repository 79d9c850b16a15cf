package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"stochroute/internal/httpsvc"
)

// ingestAck mirrors the replica /ingest response shape so streaming
// clients (internal/replay) decode the gateway's acknowledgement with
// the same code they use against a single replica.
type ingestAck struct {
	Accepted   int    `json:"accepted"`
	Rejected   int    `json:"rejected"`
	ModelEpoch uint64 `json:"model_epoch"`
	Rebuilding bool   `json:"rebuilding"`
	// Enqueued is the number of replica queues the batch entered;
	// Dropped counts replicas whose queue was full.
	Enqueued int `json:"enqueued"`
	Dropped  int `json:"dropped"`
}

// ingestProbe is the subset of the ingest body the gateway validates
// before fanning out: enough to reject an empty or malformed batch at
// the edge with the same 400 a replica would return, without decoding
// trajectory payloads it never interprets.
type ingestProbe struct {
	Trajectories []counted `json:"trajectories"`
}

// counted is a JSON value the gateway counts and never reads. It
// accepts whatever json.RawMessage accepts — any value, the decoder
// having checked its syntax — without copying it, and takes no memory
// in the slice.
type counted struct{}

// UnmarshalJSON implements json.Unmarshaler: there is nothing to keep.
func (*counted) UnmarshalJSON([]byte) error { return nil }

// handleIngest accepts one trajectory batch and fans the raw body out
// to every replica's delivery queue, so each replica's drift monitor
// observes the full stream. Delivery is asynchronous: the handler only
// enqueues (a full queue drops the batch for that replica alone —
// never blocking ingestion on the slowest replica), and per-replica
// workers deliver in order with retry and backoff, so a briefly-down
// replica catches up from its queue when it returns.
//
// The acknowledgement is optimistic — accepted reports the batch's
// trajectory count once at least one queue accepted it — because the
// authoritative accept/reject split now happens asynchronously on N
// replicas. 503 only when every queue refused.
func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(io.LimitReader(r.Body, g.cfg.maxIngestBytes+1))
	if err != nil {
		return httpsvc.BadRequest("read body: %v", err)
	}
	if int64(len(body)) > g.cfg.maxIngestBytes {
		return &httpsvc.Error{Code: http.StatusRequestEntityTooLarge, Msg: "request body too large"}
	}
	var probe ingestProbe
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&probe); err != nil {
		return httpsvc.BadRequest("parse body: %v", err)
	}
	if len(probe.Trajectories) == 0 {
		return httpsvc.BadRequest("trajectories: empty batch")
	}

	ack := ingestAck{Accepted: len(probe.Trajectories)}
	var maxEpoch uint64
	for _, rep := range g.reps {
		if e := rep.epoch.Load(); e > maxEpoch {
			maxEpoch = e
		}
		if !g.enqueueIngest(rep, body) {
			rep.ingestDropped.Inc()
			g.svc.Logf("replica %s: ingest queue full, batch dropped", rep.id)
			ack.Dropped++
			continue
		}
		rep.ingestEnqueued.Inc()
		ack.Enqueued++
	}
	ack.ModelEpoch = maxEpoch
	if ack.Enqueued == 0 {
		return &httpsvc.Error{Code: http.StatusServiceUnavailable, Msg: "all replica ingest queues full"}
	}
	return httpsvc.WriteJSON(w, &ack)
}

// enqueueIngest admits one raw body into rep's delivery queue if both
// bounds allow: queue depth (IngestQueue batches) and queued bytes
// (IngestQueueBytes) — the byte cap keeps a down replica's backlog
// from holding IngestQueue × the body cap of raw bodies in memory.
// The byte budget is reserved optimistically and rolled back on a
// full queue, so concurrent handlers never over-admit.
func (g *Gateway) enqueueIngest(rep *replica, body []byte) bool {
	n := int64(len(body))
	if rep.queuedBytes.Add(n) > g.cfg.IngestQueueBytes {
		rep.queuedBytes.Add(-n)
		return false
	}
	select {
	case rep.queue <- body:
		return true
	default:
		rep.queuedBytes.Add(-n)
		return false
	}
}

// ingestWorker drains one replica's delivery queue in order. Each
// batch gets up to IngestAttempts deliveries with doubling backoff
// (capped at IngestBackoffCap) — head-of-line retry preserves batch
// order per replica, which matters because trajectory order shapes the
// drift monitor's windows. A batch that exhausts its attempts is
// dropped (counted) so one permanently-dead replica cannot wedge its
// queue forever.
func (g *Gateway) ingestWorker(ctx context.Context, rep *replica) {
	for {
		var body []byte
		select {
		case <-ctx.Done():
			return
		case body = <-rep.queue:
		}
		rep.queuedBytes.Add(-int64(len(body)))
		delivered := false
		backoff := g.cfg.IngestBackoff
		for attempt := 1; attempt <= g.cfg.IngestAttempts; attempt++ {
			if g.deliverIngest(ctx, rep, body) {
				rep.ingestDelivered.Inc()
				delivered = true
				break
			}
			rep.ingestRetries.Inc()
			select {
			case <-ctx.Done():
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > g.cfg.IngestBackoffCap {
				backoff = g.cfg.IngestBackoffCap
			}
		}
		if !delivered {
			rep.ingestDropped.Inc()
			g.svc.Logf("replica %s: ingest batch dropped after %d attempts", rep.id, g.cfg.IngestAttempts)
		}
	}
}

// deliverIngest posts one batch to rep. Only transport failures and
// 5xx answers are retryable; a 4xx means the batch itself is bad and
// would fail identically forever, so it counts as delivered-and-done.
func (g *Gateway) deliverIngest(ctx context.Context, rep *replica, body []byte) bool {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/ingest", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set(httpsvc.HeaderContentType, "application/json")
	resp, err := g.roundTrip(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode >= 500 {
		return false
	}
	if resp.StatusCode >= 400 {
		g.svc.Logf("replica %s: ingest batch rejected with status %d (not retryable)", rep.id, resp.StatusCode)
	}
	return true
}

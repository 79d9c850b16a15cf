package server

import (
	"errors"
	"math"
	"net/http"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
)

// batchQueryRequest is one query of a POST /route/batch body. Endpoints
// are vertex IDs; clients resolving coordinates use /route's from/to
// form or snap once via /sample. Depart (seconds since midnight,
// optional, default 0) selects the per-query time-of-day slice, so one
// batch can mix peak and off-peak queries; TimeExpanded (optional)
// switches that item to per-extension slice lookup, exactly like
// /route's time_expanded parameter.
type batchQueryRequest struct {
	Source       int     `json:"source"`
	Dest         int     `json:"dest"`
	Budget       float64 `json:"budget_s"`
	Depart       float64 `json:"depart_s"`
	TimeExpanded bool    `json:"time_expanded"`
}

type batchRequest struct {
	Queries []batchQueryRequest `json:"queries"`
}

// batchItemResponse is one per-query answer: the same shape as /route
// plus an error string for queries that individually failed (the batch
// as a whole still succeeds).
type batchItemResponse struct {
	routeResponse
	Error string `json:"error,omitempty"`
}

type batchResponse struct {
	Results   []batchItemResponse `json:"results"`
	CacheHits int                 `json:"cache_hits"`
	RuntimeMS float64             `json:"runtime_ms"`
}

// handleRouteBatch answers many budget-routing queries in one request.
// The body is hardened like every JSON endpoint (size cap, unknown
// fields rejected) and fully validated up front — a malformed query
// fails the whole batch with a 400 naming its index, exactly as the
// same query would have failed /route.
//
// Cache protocol per item: the item's departure selects its
// time-of-day slice, and that slice's route cache is consulted under
// the same epoch-validated (source, dest, budget bucket) key /route
// uses; hits recompute the exact probability for the item's budget,
// and only the misses are handed to the backend — which answers them
// against one model snapshot on a bounded worker pool. Complete found
// results are stored back, so mixed hot/cold batches warm the cache
// for /route and vice versa.
//
// The whole batch shares ONE deadline (RequestTimeout from request
// start) and the request context: however many queries a batch packs,
// it can never pin the worker pool longer than a single slow /route
// call, and a client that disconnects stops the batch at the next
// query boundary.
func (s *Server) handleRouteBatch(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	var req batchRequest
	if err := httpsvc.DecodeJSON(w, r, s.cfg.MaxBatchBytes, &req); err != nil {
		return err
	}
	if len(req.Queries) == 0 {
		return httpsvc.BadRequest("queries: empty batch")
	}
	if len(req.Queries) > s.cfg.MaxBatch {
		return httpsvc.BadRequest("queries: batch of %d exceeds limit %d", len(req.Queries), s.cfg.MaxBatch)
	}
	// Whole-batch validation: a malformed query 400s the entire batch,
	// so the error names BOTH the offending index and the offending
	// field (queries[i].<field>) — a client replaying thousands of
	// items must be able to find the bad value without bisecting.
	g := s.backend.Graph()
	for i, q := range req.Queries {
		if q.Source < 0 || q.Source >= g.NumVertices() {
			return httpsvc.BadRequest("queries[%d].source: vertex %d out of range [0, %d)", i, q.Source, g.NumVertices())
		}
		if q.Dest < 0 || q.Dest >= g.NumVertices() {
			return httpsvc.BadRequest("queries[%d].dest: vertex %d out of range [0, %d)", i, q.Dest, g.NumVertices())
		}
		if q.Budget <= 0 || math.IsNaN(q.Budget) || math.IsInf(q.Budget, 0) {
			return httpsvc.BadRequest("queries[%d].budget_s: must be a positive number of seconds, got %v", i, q.Budget)
		}
		if q.Depart < 0 || math.IsNaN(q.Depart) || math.IsInf(q.Depart, 0) {
			return httpsvc.BadRequest("queries[%d].depart_s: must be a non-negative number of seconds since midnight, got %v", i, q.Depart)
		}
	}

	// Advance every slice cache touched by the batch to its slice's
	// serving epoch once, up front.
	touched := make(map[int]bool)
	for _, q := range req.Queries {
		touched[s.backend.SliceOf(q.Depart)] = true
	}
	for slice := range touched {
		s.routes[slice].AdvanceEpoch(s.backend.SliceEpoch(slice))
	}

	// The batch's trace context: every item hangs its own child span off
	// the one root (cache hits spanned here, misses spanned by the
	// backend's executor), and every per-item latency observation below
	// carries the batch's trace as its exemplar — so one request ID and
	// one trace cover the whole batch, with per-item resolution inside.
	ctx := r.Context()
	traceID := obs.SpanFromContext(ctx).TraceID()

	out := &batchResponse{Results: make([]batchItemResponse, len(req.Queries))}
	var misses []routing.BatchQuery
	var missIdx []int
	for i, q := range req.Queries {
		itemStart := time.Now()
		src, dst := graph.VertexID(q.Source), graph.VertexID(q.Dest)
		slice := s.backend.SliceOf(q.Depart)
		resp := &out.Results[i].routeResponse
		resp.Source, resp.Dest, resp.Budget = src, dst, q.Budget
		resp.Depart, resp.Slice = q.Depart, slice
		resp.TimeExpanded = q.TimeExpanded
		// Time-expanded items bypass the cache both ways, for the same
		// reasons /route does (see routeCommon).
		if !q.TimeExpanded {
			if entry, ok := s.routes[slice].Get(s.routeKeyOf(src, dst, q.Budget)); ok {
				resp.fromEntry(entry)
				out.CacheHits++
				if _, hitSpan := obs.StartSpan(ctx, "batch-item"); hitSpan != nil {
					hitSpan.SetInt("index", int64(i))
					hitSpan.SetInt("source", int64(q.Source))
					hitSpan.SetInt("dest", int64(q.Dest))
					hitSpan.SetBool("cached", true)
					hitSpan.End()
				}
				s.routeLat.observe(slice, true, false, time.Since(itemStart), traceID)
				continue
			}
		}
		misses = append(misses, routing.BatchQuery{
			Source: src,
			Dest:   dst,
			Opts: routing.Options{Budget: q.Budget, Departure: q.Depart, TimeExpanded: q.TimeExpanded,
				Deadline: start.Add(s.cfg.RequestTimeout)},
		})
		missIdx = append(missIdx, i)
	}

	items := s.backend.RouteBatch(ctx, misses, s.cfg.BatchWorkers)
	for k, item := range items {
		i := missIdx[k]
		q := misses[k]
		resp := &out.Results[i].routeResponse
		// Per-item latency: the executor timed each miss individually
		// (BatchItem.Elapsed), so batch items land in the same
		// route_latency_seconds series as /route requests — tagged with
		// the batch's trace exemplar. Items the executor never started
		// (context cancelled) have no latency to report.
		if item.Elapsed > 0 {
			itemSlice := resp.Slice
			if item.Result != nil {
				itemSlice = item.Result.Slice
			}
			s.routeLat.observe(itemSlice, false, q.Opts.TimeExpanded, item.Elapsed, traceID)
		}
		switch {
		case errors.Is(item.Err, routing.ErrUnreachable):
			resp.Complete = true
			resp.ModelEpoch = item.Epoch
		case item.Err != nil:
			out.Results[i].Error = item.Err.Error()
			resp.ModelEpoch = item.Epoch
		default:
			s.storeResult(q.Source, q.Dest, q.Opts, item.Result)
			resp.fromResult(item.Result)
		}
	}
	out.RuntimeMS = msSince(start)
	return writeAppended(w, out.appendJSON)
}

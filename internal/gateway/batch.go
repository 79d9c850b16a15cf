package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"stochroute/internal/httpsvc"
	"stochroute/internal/obs"
)

// gwBatchQuery is the subset of a batch item the gateway interprets:
// the (source, dest) pair is the routing key; everything else passes
// through untouched in the item's original bytes.
type gwBatchQuery struct {
	Source int `json:"source"`
	Dest   int `json:"dest"`
}

// gwBatchRequest keeps each query's raw bytes alongside nothing else,
// so sub-batches forward exactly what the client sent — the gateway
// never re-encodes an item it did not need to understand.
type gwBatchRequest struct {
	Queries []json.RawMessage `json:"queries"`
}

// replicaBatchResponse is the replica answer with per-item results kept
// raw for attribution and reassembly.
type replicaBatchResponse struct {
	Results   []json.RawMessage `json:"results"`
	CacheHits int               `json:"cache_hits"`
	RuntimeMS float64           `json:"runtime_ms"`
}

// gwBatchResponse is the gateway's reassembled answer: the replica
// batchResponse shape with per-item replica attribution inside each
// result and the gateway's own wall clock as runtime_ms.
type gwBatchResponse struct {
	Results   []json.RawMessage `json:"results"`
	CacheHits int               `json:"cache_hits"`
	RuntimeMS float64           `json:"runtime_ms"`
}

// batchGroup is one replica's share of a scattered batch.
type batchGroup struct {
	rep     *replica
	orig    []int             // original item positions, ascending
	queries []json.RawMessage // item bytes, same order as orig
}

// maxBatchBytes caps one /route/batch request body.
const maxBatchBytes = 1 << 20

// queryIndexRE matches the per-item position a replica names in its
// batch validation errors, so the gateway can remap sub-batch positions
// back to the client's original indices.
var queryIndexRE = regexp.MustCompile(`queries\[(\d+)\]`)

// handleRouteBatch scatters a batch across the fleet by hash owner and
// gathers the answers back into client order.
//
// Scatter: each item's (source, dest) pair is hashed with the same key
// /route uses, so an item and its equivalent single-query request land
// on the same replica and share one cache line. Items grouped per
// owner ship as one sub-batch per replica, dispatched concurrently.
//
// Gather: per-item results are reassembled at the item's original
// position, bytes untouched except for an injected "replica" field, so
// a gateway batch is bit-identical to the same batch against a single
// replica in everything the replica computed (order, route, prob, dist
// buckets, epoch). cache_hits sums across sub-batches; runtime_ms is
// the gateway's wall clock for the whole scatter/gather.
//
// Failure: a transport-level sub-batch failure marks the replica down
// and re-scatters only that replica's items among the survivors
// (bounded by the fleet size); a replica HTTP error fails the whole
// batch with the replica's status and its queries[i] positions remapped
// to the client's indices — the same contract the replica itself has.
func (g *Gateway) handleRouteBatch(w http.ResponseWriter, r *http.Request) error {
	start := time.Now()
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBatchBytes+1))
	if err != nil {
		return httpsvc.BadRequest("read body: %v", err)
	}
	if len(body) > maxBatchBytes {
		return &httpsvc.Error{Code: http.StatusRequestEntityTooLarge, Msg: "request body too large"}
	}
	var req gwBatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return httpsvc.BadRequest("parse body: %v", err)
	}
	if len(req.Queries) == 0 {
		return httpsvc.BadRequest("queries: empty batch")
	}
	keys := make([]uint64, len(req.Queries))
	for i, raw := range req.Queries {
		var q gwBatchQuery
		if err := json.Unmarshal(raw, &q); err != nil {
			return httpsvc.BadRequest("queries[%d]: %v", i, err)
		}
		keys[i] = KeyForPair(q.Source, q.Dest)
	}

	results := make([]json.RawMessage, len(req.Queries))
	cacheHits := 0
	pending := make([]int, len(req.Queries))
	for i := range pending {
		pending[i] = i
	}

	// Each round scatters the still-pending items by current owner and
	// dispatches the groups concurrently; transport failures return
	// their items to pending for the next round against the shrunken
	// live set. len(reps) rounds bound the loop: each failed round
	// marks at least one replica down.
	for round := 0; round < len(g.reps) && len(pending) > 0; round++ {
		groups := make(map[int]*batchGroup)
		for _, i := range pending {
			owner := g.ring.OwnerAlive(keys[i], g.routable)
			if owner < 0 {
				return &httpsvc.Error{Code: http.StatusServiceUnavailable, Msg: "no live replicas"}
			}
			grp := groups[owner]
			if grp == nil {
				grp = &batchGroup{rep: g.reps[owner]}
				groups[owner] = grp
			}
			grp.orig = append(grp.orig, i)
			grp.queries = append(grp.queries, req.Queries[i])
		}

		var (
			mu      sync.Mutex
			retry   []int
			httpErr error
			wg      sync.WaitGroup
		)
		for owner, grp := range groups {
			wg.Add(1)
			go func(owner int, grp *batchGroup) {
				defer wg.Done()
				sub, err := g.dispatchBatch(r.Context(), grp)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					var he *httpsvc.Error
					if errors.As(err, &he) {
						if httpErr == nil {
							httpErr = he
						}
						return
					}
					// A client-caused or timed-out sub-batch fails the
					// request without touching replica state (see
					// clientCaused): retrying with a dead context would
					// cascade down marks across the fleet.
					if clientCaused(r.Context(), err) {
						if httpErr == nil {
							httpErr = &httpsvc.Error{Code: statusClientClosedRequest, Msg: "client closed request"}
						}
						return
					}
					if isTimeout(err) {
						if httpErr == nil {
							httpErr = &httpsvc.Error{Code: http.StatusGatewayTimeout, Msg: fmt.Sprintf("replica %s: %v", grp.rep.id, err)}
						}
						return
					}
					g.markFailed(grp.rep, err)
					retry = append(retry, grp.orig...)
					return
				}
				g.gm.BatchItems(owner, len(grp.orig))
				cacheHits += sub.CacheHits
				for k, pos := range grp.orig {
					results[pos] = attributeReplica(sub.Results[k], grp.rep.id)
				}
			}(owner, grp)
		}
		wg.Wait()
		if httpErr != nil {
			return httpErr
		}
		pending = retry
	}
	if len(pending) > 0 {
		return &httpsvc.Error{Code: http.StatusBadGateway, Msg: "all replicas failed"}
	}
	return httpsvc.WriteJSON(w, &gwBatchResponse{
		Results:   results,
		CacheHits: cacheHits,
		RuntimeMS: float64(time.Since(start).Microseconds()) / 1000.0,
	})
}

// dispatchBatch posts one sub-batch to its owner. A replica-level HTTP
// error comes back as *httpsvc.Error with the replica's status and its
// queries[i] indices rewritten to the client's original positions; any
// other error is a transport failure the caller fails over.
func (g *Gateway) dispatchBatch(ctx context.Context, grp *batchGroup) (*replicaBatchResponse, error) {
	payload, err := json.Marshal(gwBatchRequest{Queries: grp.queries})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, g.cfg.RequestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, grp.rep.url+"/route/batch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set(httpsvc.HeaderContentType, "application/json")
	_, psp := obs.StartSpan(ctx, "proxy/batch")
	if psp != nil {
		psp.SetStr("replica", grp.rep.id)
		psp.SetInt("items", int64(len(grp.queries)))
		req.Header.Set(httpsvc.HeaderTraceparent, obs.FormatTraceparent(psp.TraceID(), psp.WireID(), true))
	}
	t0 := time.Now()
	resp, err := g.roundTrip(req)
	g.gm.Request(g.index[grp.rep.id], time.Since(t0), err != nil)
	if psp != nil {
		psp.SetError(err)
		psp.End()
	}
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorMessage(resp.Body)
		msg = remapQueryIndices(msg, grp.orig)
		return nil, &httpsvc.Error{Code: resp.StatusCode, Msg: fmt.Sprintf("replica %s: %s", grp.rep.id, msg)}
	}
	var sub replicaBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return nil, fmt.Errorf("replica %s: decode batch response: %w", grp.rep.id, err)
	}
	if len(sub.Results) != len(grp.queries) {
		return nil, fmt.Errorf("replica %s: %d results for %d queries", grp.rep.id, len(sub.Results), len(grp.queries))
	}
	return &sub, nil
}

// attributeReplica injects `"replica":"id"` as the first field of a
// raw JSON object, leaving every byte the replica produced untouched —
// the bit-identity guarantee only adds, never rewrites.
func attributeReplica(raw json.RawMessage, id string) json.RawMessage {
	i := bytes.IndexByte(raw, '{')
	if i < 0 {
		return raw
	}
	out := make([]byte, 0, len(raw)+len(id)+14)
	out = append(out, raw[:i+1]...)
	out = append(out, `"replica":`...)
	out = strconv.AppendQuote(out, id)
	rest := bytes.TrimLeft(raw[i+1:], " \t\r\n")
	if len(rest) > 0 && rest[0] != '}' {
		out = append(out, ',')
	}
	out = append(out, rest...)
	return out
}

// readErrorMessage extracts the {"error": ...} body of a failed replica
// response, falling back to the raw text.
func readErrorMessage(body io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(body, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(b))
}

// remapQueryIndices rewrites replica-local queries[i] positions in a
// validation error to the client's original batch indices.
func remapQueryIndices(msg string, orig []int) string {
	return queryIndexRE.ReplaceAllStringFunc(msg, func(m string) string {
		sub := queryIndexRE.FindStringSubmatch(m)
		k, err := strconv.Atoi(sub[1])
		if err != nil || k < 0 || k >= len(orig) {
			return m
		}
		return "queries[" + strconv.Itoa(orig[k]) + "]"
	})
}

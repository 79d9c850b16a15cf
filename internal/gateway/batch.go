package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"time"

	"stochroute/internal/httpsvc"
	"stochroute/internal/par"
)

// batchItem is one query of a client's batch: its span in the request
// body and its ring key, then the replica that owns it in the current
// round, and once answered, its result's span in that replica's body.
type batchItem struct {
	query, result []byte
	key           uint64
	owner         int
	rep           *replica
}

// batchGroup is one replica's share of a scattered batch.
type batchGroup struct {
	rep    *replica
	orig   []int   // item positions, ascending
	answer *[]byte // the replica's body, from bufs; results are its spans
	hits   int     // the answer's cache_hits
	err    error   // why there is no answer
}

// maxBatchBytes caps one /route/batch request body.
const maxBatchBytes = 1 << 20

// queryIndexRE matches the per-item position a replica names in its
// batch validation errors, so the gateway can remap sub-batch positions
// back to the client's original indices.
var queryIndexRE = regexp.MustCompile(`queries\[(\d+)\]`)

// jsonContentType is the Content-Type value slice of every body the
// gateway builds; nothing may write through it.
var jsonContentType = []string{"application/json"}

// bufs recycles a batch's documents: the client's body, each replica's
// answer and the gateway's own answer.
var bufs = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// handleRouteBatch scatters a batch across the fleet by hash owner and
// gathers the answers back into client order. No document is decoded
// into values: the client's body and every replica's answer are walked
// in place (see scan.go), sub-batches are the client's item bytes
// joined, and the answer is the replicas' result bytes, appended.
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
	body := bufs.Get().(*[]byte)
	defer bufs.Put(body)
	var answers []*[]byte // every round's replica answers, recycled on return
	defer recycle(&answers)

	doc, err := readAll((*body)[:0], r.Body, maxBatchBytes)
	*body = doc
	if err != nil {
		return httpsvc.BadRequest("read body: %v", err)
	}
	if len(doc) > maxBatchBytes {
		return &httpsvc.Error{Code: http.StatusRequestEntityTooLarge, Msg: "request body too large"}
	}
	items, err := scanBatchRequest(doc)
	if err != nil {
		return err
	}
	if len(items) == 0 {
		return httpsvc.BadRequest("queries: empty batch")
	}

	cacheHits := 0
	pending := make([]int, len(items))
	for i := range pending {
		pending[i] = i
	}

	// Each round scatters the still-pending items by current owner and
	// dispatches the groups concurrently, one worker per group, since
	// each waits on its replica; transport failures return their items
	// to pending for the next round against the shrunken live set.
	// len(reps) rounds bound the loop: each failed round marks at least
	// one replica down.
	for round := 0; round < len(g.reps) && len(pending) > 0; round++ {
		groups, err := g.scatter(items, pending)
		if err != nil {
			return err
		}
		_ = par.For(len(groups), len(groups), func(k int) error {
			groups[k].err = g.dispatchBatch(r, &groups[k], items)
			return nil
		})

		// One pass in owner order gathers the round: every transport
		// failure marks its replica, and the request fails with the
		// lowest owner's error when any group failed otherwise.
		var (
			retry  []int
			reqErr error
		)
		for k := range groups {
			grp := &groups[k]
			if grp.answer != nil {
				answers = append(answers, grp.answer)
			}
			if grp.err == nil {
				grp.rep.batchItems.Add(uint64(len(grp.orig)))
				cacheHits += grp.hits
				for _, pos := range grp.orig {
					items[pos].rep = grp.rep
				}
				continue
			}
			// A client-caused or timed-out sub-batch fails the request
			// without touching replica state (see clientCaused):
			// retrying with a dead context would cascade down marks
			// across the fleet.
			var fail error
			var he *httpsvc.Error
			switch {
			case errors.As(grp.err, &he):
				fail = he
			case clientCaused(r.Context(), grp.err):
				fail = &httpsvc.Error{Code: statusClientClosedRequest, Msg: "client closed request"}
			case isTimeout(grp.err):
				fail = &httpsvc.Error{Code: http.StatusGatewayTimeout, Msg: fmt.Sprintf("replica %s: %v", grp.rep.id, grp.err)}
			default:
				g.markFailed(grp.rep, grp.err)
				retry = append(retry, grp.orig...)
			}
			if reqErr == nil {
				reqErr = fail
			}
		}
		if reqErr != nil {
			return reqErr
		}
		pending = retry
	}
	if len(pending) > 0 {
		return &httpsvc.Error{Code: http.StatusBadGateway, Msg: "all replicas failed"}
	}

	out := bufs.Get().(*[]byte)
	defer bufs.Put(out)
	ans := append((*out)[:0], `{"results":[`...)
	for i := range items {
		if i > 0 {
			ans = append(ans, ',')
		}
		ans = appendAttributed(ans, items[i].result, items[i].rep.idJSON)
	}
	ans = append(ans, `],"cache_hits":`...)
	ans = strconv.AppendInt(ans, int64(cacheHits), 10)
	ans = append(ans, `,"runtime_ms":`...)
	ans = httpsvc.AppendFloat(ans, float64(time.Since(start).Microseconds())/1000.0)
	ans = append(ans, "}\n"...)
	*out = ans
	return httpsvc.WriteJSONBytes(w, ans)
}

// scatter groups the pending items by their live ring owner, one group
// per owner in owner order, each group's positions ascending.
func (g *Gateway) scatter(items []batchItem, pending []int) ([]batchGroup, error) {
	count := make([]int, len(g.reps))
	for _, i := range pending {
		owner := g.ring.OwnerAlive(items[i].key, g.routable)
		if owner < 0 {
			return nil, &httpsvc.Error{Code: http.StatusServiceUnavailable, Msg: "no live replicas"}
		}
		items[i].owner = owner
		count[owner]++
	}
	groups := make([]batchGroup, 0, len(g.reps))
	orig := make([]int, len(pending))
	at := 0
	for owner, n := range count {
		if n == 0 {
			continue
		}
		count[owner] = len(groups) // from here on, the owner's group
		groups = append(groups, batchGroup{rep: g.reps[owner], orig: orig[at : at : at+n]})
		at += n
	}
	for _, i := range pending {
		grp := &groups[count[items[i].owner]]
		grp.orig = append(grp.orig, i)
	}
	return groups, nil
}

// dispatchBatch posts one group's sub-batch to its owner: the group's
// item spans joined into {"queries":[...]}, under the client's identity
// headers. On success each item's result is a span of grp.answer. A
// replica-level HTTP error comes back as *httpsvc.Error with the
// replica's status and its queries[i] indices rewritten to the client's
// original positions; any other error is a transport failure the
// caller fails over.
func (g *Gateway) dispatchBatch(r *http.Request, grp *batchGroup, items []batchItem) error {
	size := len(`{"queries":[]}`) + len(grp.orig) - 1
	for _, pos := range grp.orig {
		size += len(items[pos].query)
	}
	payload := append(make([]byte, 0, size), `{"queries":[`...)
	for k, pos := range grp.orig {
		if k > 0 {
			payload = append(payload, ',')
		}
		payload = append(payload, items[pos].query...)
	}
	payload = append(payload, "]}"...)

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.RequestTimeout)
	defer cancel()
	req := grp.rep.request(ctx, r, http.MethodPost, "/route/batch", "")
	req.Header[httpsvc.HeaderContentType] = jsonContentType
	req.ContentLength = int64(len(payload))
	req.Body = io.NopCloser(bytes.NewReader(payload))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(payload)), nil }
	resp, err := g.send(grp.rep, req, "proxy/batch", len(grp.orig))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg := readErrorMessage(resp.Body)
		msg = remapQueryIndices(msg, grp.orig)
		return &httpsvc.Error{Code: resp.StatusCode, Msg: fmt.Sprintf("replica %s: %s", grp.rep.id, msg)}
	}
	grp.answer = bufs.Get().(*[]byte)
	doc, err := readAll((*grp.answer)[:0], resp.Body, math.MaxInt)
	*grp.answer = doc
	var n int
	if err == nil {
		n, grp.hits, err = scanBatchAnswer(doc, grp.orig, items)
	}
	if err != nil {
		return fmt.Errorf("replica %s: decode batch response: %w", grp.rep.id, err)
	}
	if n != len(grp.orig) {
		return fmt.Errorf("replica %s: %d results for %d queries", grp.rep.id, n, len(grp.orig))
	}
	return nil
}

// scanBatchRequest walks a client's batch body in place and returns its
// items: each one's span in body and the ring key of its (source, dest)
// pair. It accepts exactly what json.Unmarshal of the body into
// {"queries": []json.RawMessage}, then of each item into an object with
// int fields source and dest, accepts; so a null item is the pair
// (0, 0). Errors are the 400s the client gets: "parse body: …" for the
// body, "queries[i]…" for an item.
func scanBatchRequest(body []byte) ([]batchItem, error) {
	if !json.Valid(body) {
		return nil, httpsvc.BadRequest("parse body: %v", syntaxError(body))
	}
	c := cursor{doc: body}
	isObject, err := c.open('{')
	if err != nil {
		return nil, httpsvc.BadRequest("parse body: %v", err)
	}
	var (
		items   []batchItem
		itemErr error // the first bad item of the last queries array
	)
	for isObject && c.more() {
		if !keyIs(c.key(), "queries") {
			c.value()
			continue
		}
		// A repeated "queries" replaces the items before it, as
		// json.Unmarshal overwrites a slice.
		items, itemErr = items[:0], nil
		isArray, err := c.open('[')
		if err != nil {
			return nil, httpsvc.BadRequest("parse body: queries: %v", err)
		}
		for isArray && c.more() {
			q := c.value()
			source, dest, err := batchPair(q)
			if err != nil && itemErr == nil {
				itemErr = httpsvc.BadRequest("queries[%d]%v", len(items), err)
			}
			items = append(items, batchItem{query: q, key: KeyForPair(source, dest)})
		}
	}
	return items, itemErr
}

// batchPair reads an item's (source, dest) as json.Unmarshal fills
// int fields: null, or an object whose last source and dest members
// are integers or null. Other members are not looked at. The error
// begins with what follows "queries[i]" in the client's message.
func batchPair(q []byte) (source, dest int, err error) {
	c := cursor{doc: q}
	isObject, err := c.open('{')
	if err != nil {
		return 0, 0, fmt.Errorf(": %v", err)
	}
	for isObject && c.more() {
		k := c.key()
		v := c.value()
		var field *int
		var name string
		switch {
		case keyIs(k, "source"):
			field, name = &source, "source"
		case keyIs(k, "dest"):
			field, name = &dest, "dest"
		default:
			continue
		}
		if v[0] == 'n' {
			continue
		}
		if n, ok := integer(v); ok {
			*field = n
		} else if err == nil {
			err = fmt.Errorf(".%s: want an integer, got %s", name, describe(v))
		}
	}
	return source, dest, err
}

// scanBatchAnswer walks a replica's sub-batch answer in place: result k
// becomes the result of item orig[k], and n counts the results. It
// decodes what {"results": []json.RawMessage, "cache_hits": int,
// "runtime_ms": float64} would, except that nothing may follow the
// document.
func scanBatchAnswer(doc []byte, orig []int, items []batchItem) (n, hits int, err error) {
	if !json.Valid(doc) {
		return 0, 0, syntaxError(doc)
	}
	c := cursor{doc: doc}
	isObject, err := c.open('{')
	if err != nil {
		return 0, 0, err
	}
	for isObject && c.more() {
		k := c.key()
		switch {
		case keyIs(k, "results"):
			isArray, err := c.open('[')
			if err != nil {
				return 0, 0, fmt.Errorf("results: %v", err)
			}
			for n = 0; isArray && c.more(); n++ {
				if v := c.value(); n < len(orig) {
					items[orig[n]].result = v
				}
			}
		case keyIs(k, "cache_hits"):
			if v := c.value(); v[0] != 'n' {
				var ok bool
				if hits, ok = integer(v); !ok {
					return 0, 0, fmt.Errorf("cache_hits: want an integer, got %s", describe(v))
				}
			}
		case keyIs(k, "runtime_ms"):
			if v := c.value(); v[0] != 'n' {
				if _, err := strconv.ParseFloat(string(v), 64); err != nil {
					return 0, 0, fmt.Errorf("runtime_ms: want a float64, got %s", describe(v))
				}
			}
		default:
			c.value()
		}
	}
	return n, hits, nil
}

// appendAttributed appends a replica's result with `"replica":<id>`
// spliced in as the first field of its object, every byte the replica
// produced kept — the bit-identity guarantee only adds, never rewrites.
// A result that is not an object is appended as it is.
func appendAttributed(dst, result, idJSON []byte) []byte {
	i := bytes.IndexByte(result, '{')
	if i < 0 {
		return append(dst, result...)
	}
	dst = append(dst, result[:i+1]...)
	dst = append(dst, `"replica":`...)
	dst = append(dst, idJSON...)
	rest := bytes.TrimLeft(result[i+1:], " \t\r\n")
	if len(rest) > 0 && rest[0] != '}' {
		dst = append(dst, ',')
	}
	return append(dst, rest...)
}

// readAll appends what r yields to dst until EOF or until more than
// limit bytes are in, so a caller can tell a body past its cap.
func readAll(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):cap(dst)]
		if left := limit - len(dst); left < len(room) {
			room = room[:left+1]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil || len(dst) > limit {
			return dst, err
		}
	}
}

// recycle returns a batch's replica answers to bufs.
func recycle(answers *[]*[]byte) {
	for _, b := range *answers {
		bufs.Put(b)
	}
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

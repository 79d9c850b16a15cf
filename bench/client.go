package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/routing"
)

// routeJSON is the part of a /route answer (or of one /route/batch
// result) the harness reads.
type routeJSON struct {
	Found      bool           `json:"found"`
	Complete   bool           `json:"complete"`
	Prob       float64        `json:"prob"`
	Mean       float64        `json:"mean_s"`
	Path       []graph.EdgeID `json:"path"`
	Expansions int            `json:"expansions"`
	Convolved  int            `json:"convolved"`
	Estimated  int            `json:"estimated"`
	ModelEpoch uint64         `json:"model_epoch"`
	Cached     bool           `json:"cached"`
	Error      string         `json:"error"`
}

type batchJSON struct {
	Results []routeJSON `json:"results"`
}

// obsKey identifies "the answer to query qi under model generation
// epoch" — the unit that must never change within a run.
type obsKey struct {
	qi    int
	epoch uint64
}

// obsVal is the first answer seen for an obsKey. Search counters are
// only present on answers that were actually searched (not cache hits).
type obsVal struct {
	digest       uint64
	counters     [3]int
	haveCounters bool
}

type blockLog struct {
	wall    time.Duration
	queries int
}

// clientLog is everything one closed-loop client observed.
type clientLog struct {
	latMS      []float64   // one sample per request, time to last body byte
	slotMS     [][]float64 // the same samples by position in the request list
	blocks     []blockLog
	attempted  int // queries sent
	failed     int // queries unanswered, wrongly answered or inconsistently answered
	respBytes  int64
	expansions int64
	convolved  int64
	estimated  int64
	seen       map[obsKey]obsVal
	errs       []string
}

func newClientLog(samples int) *clientLog {
	return &clientLog{latMS: make([]float64, 0, samples), seen: make(map[obsKey]obsVal)}
}

func (l *clientLog) fail(n int, format string, args ...any) {
	l.failed += n
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// client is one caller of the fleet: it waits for each answer before it
// sends the next request (closed loop) and checks every answer it gets.
type client struct {
	http      *http.Client
	g         *graph.Graph
	plan      *plan
	baseEpoch uint64
	body      bytes.Buffer
	log       *clientLog
}

func newClient(g *graph.Graph, p *plan, baseEpoch uint64, samples int) *client {
	return &client{
		http: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
			Timeout:   60 * time.Second,
		},
		g:         g,
		plan:      p,
		baseEpoch: baseEpoch,
		log:       newClientLog(samples),
	}
}

func (c *client) closeIdle() { c.http.CloseIdleConnections() }

// exchange performs the HTTP round trip and leaves the body in c.body.
func (c *client) exchange(base string, rq *request) (status int, dur time.Duration, err error) {
	var req *http.Request
	if rq.post {
		req, err = http.NewRequest(http.MethodPost, base+rq.target, bytes.NewReader(rq.body))
		if err == nil {
			req.Header.Set("Content-Type", "application/json")
		}
	} else {
		req, err = http.NewRequest(http.MethodGet, base+rq.target, nil)
	}
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, time.Since(t0), err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	dur = time.Since(t0)
	resp.Body.Close()
	return resp.StatusCode, dur, err
}

// do sends one request, verifies every answer in it and records the
// outcome. It returns the decoded answers (nil when the exchange itself
// failed) and the client-side latency.
func (c *client) do(base string, rq *request) ([]routeJSON, time.Duration) {
	n := len(rq.items)
	c.log.attempted += n
	status, dur, err := c.exchange(base, rq)
	if err != nil {
		c.log.fail(n, "%s: %v", rq.target, err)
		return nil, dur
	}
	if status != http.StatusOK {
		c.log.fail(n, "%s: status %d: %.120s", rq.target, status, c.body.Bytes())
		return nil, dur
	}
	c.log.latMS = append(c.log.latMS, float64(dur)/float64(time.Millisecond))
	c.log.respBytes += int64(c.body.Len())
	var answers []routeJSON
	if rq.post {
		var b batchJSON
		if err := json.Unmarshal(c.body.Bytes(), &b); err != nil {
			c.log.fail(n, "%s: decode: %v", rq.target, err)
			return nil, dur
		}
		answers = b.Results
	} else {
		answers = make([]routeJSON, 1)
		if err := json.Unmarshal(c.body.Bytes(), &answers[0]); err != nil {
			c.log.fail(n, "%s: decode: %v", rq.target, err)
			return nil, dur
		}
	}
	if len(answers) != n {
		c.log.fail(n, "%s: %d answers for %d queries", rq.target, len(answers), n)
		return nil, dur
	}
	for k := range answers {
		if msg := c.check(rq.items[k], &answers[k]); msg != "" {
			c.log.fail(1, "%s item %d: %s", rq.target, k, msg)
		}
	}
	return answers, dur
}

// check is the correctness gate for one answer: a complete, valid path
// with a probability, identical to every other answer to the same query
// under the same model epoch, and — at the epoch the fleet was set up
// with — identical to what the engine answers when asked directly.
func (c *client) check(qi int, a *routeJSON) string {
	q := c.plan.queries[qi]
	switch {
	case a.Error != "":
		return "error: " + a.Error
	case !a.Found || !a.Complete:
		return fmt.Sprintf("found=%v complete=%v", a.Found, a.Complete)
	case !(a.Prob >= 0 && a.Prob <= 1):
		return fmt.Sprintf("prob %v outside [0,1]", a.Prob)
	}
	if err := routing.ValidatePath(c.g, a.Path, q.src, q.dst); err != nil {
		return "invalid path: " + err.Error()
	}
	got := obsVal{digest: answerDigest(a.Path, a.Prob, a.Mean)}
	if !a.Cached {
		got.haveCounters = true
		got.counters = [3]int{a.Expansions, a.Convolved, a.Estimated}
		c.log.expansions += int64(a.Expansions)
		c.log.convolved += int64(a.Convolved)
		c.log.estimated += int64(a.Estimated)
	}
	if a.ModelEpoch == c.baseEpoch {
		ref := &c.plan.refs[qi]
		if got.digest != ref.digest {
			return "answer differs from the engine's direct answer"
		}
		if got.haveCounters && got.counters != ref.counters {
			return fmt.Sprintf("search counters %v differ from the engine's direct run %v", got.counters, ref.counters)
		}
	}
	return mergeObs(c.log.seen, obsKey{qi, a.ModelEpoch}, got)
}

// mergeObs records an observation, or compares it with the one already
// recorded for the same query and epoch.
func mergeObs(seen map[obsKey]obsVal, k obsKey, got obsVal) string {
	prev, ok := seen[k]
	if !ok {
		seen[k] = got
		return ""
	}
	if prev.digest != got.digest {
		return fmt.Sprintf("query %d answered two ways at epoch %d", k.qi, k.epoch)
	}
	if prev.haveCounters && got.haveCounters && prev.counters != got.counters {
		return fmt.Sprintf("query %d searched two ways at epoch %d: %v vs %v", k.qi, k.epoch, prev.counters, got.counters)
	}
	if !prev.haveCounters && got.haveCounters {
		seen[k] = got
	}
	return ""
}

// replay runs whole blocks — the plan's request list, start to end,
// beginning at offset — until stop reports true at a block boundary.
// answered counts every request's queries as they complete, for all
// clients together; blockDone, when set, is called at each block boundary.
func (c *client) replay(base string, offset int, stop func(blocksDone int) bool, answered *atomic.Int64, blockDone func()) {
	rqs := c.plan.requests
	if c.log.slotMS == nil {
		// One backing array, a fixed share per slot: the harness's own
		// memory is then the same however many blocks the clock allows,
		// and stays out of the resident-heap metric's run-to-run spread.
		const perSlot = 64
		backing := make([]float64, perSlot*len(rqs))
		c.log.slotMS = make([][]float64, len(rqs))
		for i := range c.log.slotMS {
			c.log.slotMS[i] = backing[i*perSlot : i*perSlot : (i+1)*perSlot]
		}
	}
	for done := 0; !stop(done); done++ {
		t0 := time.Now()
		for i := range rqs {
			slot := (offset + i) % len(rqs)
			if ans, dur := c.do(base, &rqs[slot]); ans != nil {
				c.log.slotMS[slot] = append(c.log.slotMS[slot], float64(dur)/float64(time.Millisecond))
			}
			answered.Add(int64(len(rqs[slot].items)))
		}
		c.log.blocks = append(c.log.blocks, blockLog{wall: time.Since(t0), queries: c.plan.perBlock})
		if blockDone != nil {
			blockDone()
		}
	}
}

// postJSON sends one raw JSON body and decodes the reply into out.
func postJSON(hc *http.Client, url string, body []byte, out any) error {
	resp, err := hc.Post(url, "application/json", bytes.NewReader(body))
	return decodeReply("POST "+url, resp, err, out)
}

func getJSON(hc *http.Client, url string, out any) error {
	resp, err := hc.Get(url)
	return decodeReply("GET "+url, resp, err, out)
}

// decodeReply reads a 200 reply's JSON body into out.
func decodeReply(what string, resp *http.Response, err error, out any) error {
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.120s", what, resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, out)
}

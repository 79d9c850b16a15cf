package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ml"
	"stochroute/internal/routing"
)

// The descent trace. The program under test is not instrumented here;
// instead, after the measured phase, every request of one block is asked
// again once per depth of the stack, single-threaded:
//
//	client.request    through the gateway
//	server.http       straight at the replica that owns the key
//	engine.route      Engine.RouteCtx / RouteBatch on that replica's engine
//	routing.search    routing.PBRCtx with the coster the engine would build
//	  routing.potentials_init, hybrid.extend_convolve, hybrid.extend_estimate
//	                  a second PBRCtx run behind timing wrappers
//
// Each execution is a span; a span's parent is the execution one level
// up for the same request, so a layer's self time is its span minus its
// child's. Spans are kept in memory and written when the run ends.

// span is one line of <workload>.spans.jsonl. Times are nanoseconds
// since the descent began. Aggregate spans (count > 1) cover many short
// calls: start is the first call's start and end is start plus the time
// spent inside all of them.
type span struct {
	Trace  int    `json:"trace"`
	Span   int    `json:"span"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int    `json:"count,omitempty"`
}

// costerStats is what the timing coster saw during one search.
type costerStats struct {
	convolveCalls, estimateCalls int
	convolveBusy, estimateBusy   time.Duration
	firstConvolve, firstEstimate time.Time
	sliceSwitches                int
	lastSlice                    int
}

// capture keeps a strided sample of the kernels' real operands for the
// probes: convolution operand pairs and scaled estimator feature rows.
type capture struct {
	limit         int
	convSeen      int
	estSeen       int
	convA, convB  []*hist.Hist
	rows          [][]float64
	nets          []*ml.Network
	convStride    int
	estStride     int
	productsTotal int64
}

func (c *capture) convolution(a, b *hist.Hist) {
	c.convSeen++
	if len(c.convA) >= c.limit || c.convSeen%c.convStride != 0 {
		return
	}
	c.convA = append(c.convA, a.Clone()) // a lives in the search arena
	c.convB = append(c.convB, b)
	c.productsTotal += int64(len(a.P)) * int64(len(b.P))
}

func (c *capture) estimate(m *hybrid.Model, virtual *hist.Hist, next graph.EdgeID, ps hybrid.PairStats, has bool) {
	c.estSeen++
	if len(c.rows) >= c.limit || c.estSeen%c.estStride != 0 {
		return
	}
	row := hybrid.Features(m.KB, virtual, next, ps, has)
	m.Estimator.Scaler.TransformRow(row)
	c.rows = append(c.rows, row)
	c.nets = append(c.nets, m.Estimator.Net)
}

// tracedCoster wraps the coster the engine would hand the search and
// times every extension, classified the way the model itself decides
// (Model.ShouldEstimate). It implements the same capability set as what
// it wraps, so the search takes the same arena path.
type tracedCoster struct {
	inner   hybrid.ScratchCoster
	modelAt func(elapsed float64) (*hybrid.Model, int)
	st      *costerStats
	cap     *capture
}

func (t *tracedCoster) InitialHist(e graph.EdgeID) *hist.Hist { return t.inner.InitialHist(e) }
func (t *tracedCoster) MinEdgeTime(e graph.EdgeID) float64    { return t.inner.MinEdgeTime(e) }
func (t *tracedCoster) Width() float64                        { return t.inner.Width() }
func (t *tracedCoster) InitialHistInto(s *hybrid.Scratch, e graph.EdgeID) *hist.Hist {
	return t.inner.InitialHistInto(s, e)
}

func (t *tracedCoster) Extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	m, slice, estimate, t0 := t.before(0, lastEdge, next)
	out := t.inner.Extend(virtual, lastEdge, next)
	t.after(m, slice, estimate, t0, virtual, lastEdge, next)
	return out
}

func (t *tracedCoster) ExtendInto(s *hybrid.Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	m, slice, estimate, t0 := t.before(0, lastEdge, next)
	out := t.inner.ExtendInto(s, virtual, lastEdge, next)
	t.after(m, slice, estimate, t0, virtual, lastEdge, next)
	return out
}

// before classifies the coming extension and starts its clock; after
// stops it and books the call. Capturing operands happens after the
// clock has stopped.
func (t *tracedCoster) before(elapsed float64, lastEdge, next graph.EdgeID) (*hybrid.Model, int, bool, time.Time) {
	m, slice := t.modelAt(elapsed)
	return m, slice, m.ShouldEstimate(lastEdge, next), time.Now()
}

func (t *tracedCoster) after(m *hybrid.Model, slice int, estimate bool, t0 time.Time, virtual *hist.Hist, lastEdge, next graph.EdgeID) {
	d := time.Since(t0)
	st := t.st
	if slice != st.lastSlice {
		st.sliceSwitches++
		st.lastSlice = slice
	}
	if estimate {
		if st.estimateCalls == 0 {
			st.firstEstimate = t0
		}
		st.estimateCalls++
		st.estimateBusy += d
		ps, has := m.KB.Pair(lastEdge, next)
		t.cap.estimate(m, virtual, next, ps, has)
		return
	}
	if st.convolveCalls == 0 {
		st.firstConvolve = t0
	}
	st.convolveCalls++
	st.convolveBusy += d
	t.cap.convolution(virtual, m.KB.Edge(next).Marginal)
}

// tracedTemporalCoster adds the time-expanded capability on top.
type tracedTemporalCoster struct {
	tracedCoster
	temporal hybrid.TemporalScratchCoster
}

func (t *tracedTemporalCoster) SliceAtElapsed(elapsed float64) int {
	return t.temporal.SliceAtElapsed(elapsed)
}
func (t *tracedTemporalCoster) MinEdgeTimeWithin(e graph.EdgeID, horizon float64) float64 {
	return t.temporal.MinEdgeTimeWithin(e, horizon)
}
func (t *tracedTemporalCoster) ExtendElapsed(elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	m, slice, estimate, t0 := t.before(elapsed, lastEdge, next)
	out := t.temporal.ExtendElapsed(elapsed, virtual, lastEdge, next)
	t.after(m, slice, estimate, t0, virtual, lastEdge, next)
	return out
}
func (t *tracedTemporalCoster) ExtendElapsedInto(s *hybrid.Scratch, elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	m, slice, estimate, t0 := t.before(elapsed, lastEdge, next)
	out := t.temporal.ExtendElapsedInto(s, elapsed, virtual, lastEdge, next)
	t.after(m, slice, estimate, t0, virtual, lastEdge, next)
	return out
}

var (
	_ hybrid.ScratchCoster         = (*tracedCoster)(nil)
	_ hybrid.TemporalScratchCoster = (*tracedTemporalCoster)(nil)
)

// tracedPotentials times the per-query set-up of a PotentialSource and
// counts the evaluations the search asks of it.
type tracedPotentials struct {
	inner routing.PotentialSource
	init  time.Duration
	start time.Time
	evals int
}

func (t *tracedPotentials) Potentials(dest graph.VertexID) (routing.PotentialFunc, func()) {
	t.start = time.Now()
	fn, release := t.inner.Potentials(dest)
	t.init = time.Since(t.start)
	return func(v graph.VertexID) float64 {
		t.evals++
		return fn(v)
	}, release
}

// searchSetup is what Engine.routeOnSnapshot assembles for one query,
// rebuilt outside the engine so the search can be run bare: the serving
// model set and ALT tables equal to the ones the engine holds (same
// deterministic landmark selection, same optimistic metric).
type searchSetup struct {
	g   *graph.Graph
	set *hybrid.ModelSet
	alt []*routing.ALT // per slice
	min *routing.ALT   // across slices, for time-expanded searches
}

func newSearchSetup(rep *replica, landmarks int) (*searchSetup, error) {
	g := rep.eng.Graph()
	set := rep.eng.ModelSet()
	lms := routing.SelectLandmarks(g, graph.NewGridIndex(g, 500).CellRepresentatives(), landmarks)
	ss := &searchSetup{g: g, set: set}
	for s := 0; s < set.K(); s++ {
		t, err := routing.BuildALT(g, set.At(s).MinEdgeTime, lms)
		if err != nil {
			return nil, err
		}
		ss.alt = append(ss.alt, t)
	}
	ss.min = ss.alt[0]
	if set.K() > 1 {
		t, err := routing.BuildALT(g, set.MinEdgeTimeAcrossSlices, lms)
		if err != nil {
			return nil, err
		}
		ss.min = t
	}
	return ss, nil
}

// search runs PBRCtx for q the way the engine would; with st non-nil it
// runs behind the timing wrappers.
func (ss *searchSetup) search(q query, st *costerStats, pot *tracedPotentials, cap *capture) (*routing.Result, error) {
	opts := q.options()
	slice := ss.set.SliceOf(q.depart)
	var qs hybrid.QueryStats
	var coster hybrid.Coster
	var potentials routing.PotentialSource
	if q.expanded {
		tc := ss.set.TimeExpandedCoster(q.depart, &qs)
		coster, potentials = tc, ss.min
		if st != nil {
			st.lastSlice = tc.SliceAtElapsed(0)
			coster = &tracedTemporalCoster{
				tracedCoster: tracedCoster{
					inner: tc,
					modelAt: func(elapsed float64) (*hybrid.Model, int) {
						s := tc.SliceAtElapsed(elapsed)
						return ss.set.At(s), s
					},
					st: st, cap: cap,
				},
				temporal: tc,
			}
		}
	} else {
		m := ss.set.At(slice)
		sc := m.WithStats(&qs).(hybrid.ScratchCoster)
		coster, potentials = sc, ss.alt[slice]
		if st != nil {
			st.lastSlice = slice
			coster = &tracedCoster{
				inner:   sc,
				modelAt: func(float64) (*hybrid.Model, int) { return m, slice },
				st:      st, cap: cap,
			}
		}
	}
	if pot != nil {
		pot.inner = potentials
		potentials = pot
	}
	opts.Potentials = potentials
	res, err := routing.PBRCtx(context.Background(), ss.g, coster, q.src, q.dst, opts)
	if err != nil {
		return nil, err
	}
	res.NumConvolved, res.NumEstimated = qs.Convolved, qs.Estimated
	return res, nil
}

// reqTimes is one request's descent: how long the same question took at
// each depth, asked back to back.
type reqTimes struct {
	client, server, engine time.Duration // whole-request wall time per depth
	search, searchTraced   time.Duration // Σ over the request's items, run one after another
	itemBusy               time.Duration // Σ BatchItem.Elapsed inside the engine's batch executor
	items                  int
	cached                 bool // answered from the route cache: the descent ends at the server
}

// descent is the traced run's outcome: the spans, the per-request times
// and the search-level sums the layer metrics are computed from.
type descent struct {
	spans   []span
	per     []reqTimes
	workers int // engine batch workers (1 for single-route workloads)

	potentialsInit               time.Duration
	potentialEvals               int
	convolveBusy, estimateBusy   time.Duration
	convolveCalls, estimateCalls int
	sliceSwitches                int
	expansions, labels           int
	prunedPotential, prunedPivot int
	prunedDominance              int
	arenaBytes                   int64
	searchAllocs                 uint64
	searches                     int
	cap                          *capture
	err                          error
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// descentReps is how often each depth of each request is run; the
// fastest run counts. One stall of the machine then needs to hit the
// same depth of the same request twice to reach the numbers.
const descentReps = 2

// runDescent executes the descent over one block of the plan, request
// by request, the depths of one request back to back.
func runDescent(f *fleet, p *plan, c *client, sc *scale) *descent {
	d := &descent{workers: 1, cap: &capture{limit: sc.captureLimit, convStride: sc.convStride, estStride: sc.estStride}}
	origin := time.Now()
	fail := func(format string, args ...any) *descent {
		d.err = fmt.Errorf(format, args...)
		return d
	}
	// fastest runs one depth descentReps times and returns the start and
	// duration of the quickest run; run reports ok=false to abort.
	fastest := func(run func(rep int) (time.Duration, bool)) (start time.Time, best time.Duration, ok bool) {
		for rep := 0; rep < descentReps; rep++ {
			t0 := time.Now()
			dur, ok := run(rep)
			if !ok {
				return t0, 0, false
			}
			if rep == 0 || dur < best {
				start, best = t0, dur
			}
		}
		return start, best, true
	}
	setups := make(map[*replica]*searchSetup)
	ctx := context.Background()

	for i := range p.requests {
		rq := &p.requests[i]
		rt := reqTimes{items: len(rq.items)}
		q0 := p.queries[rq.items[0]]
		owner := f.owner(q0.src, q0.dst)
		for _, qi := range rq.items[1:] {
			if q := p.queries[qi]; f.owner(q.src, q.dst) != owner {
				return fail("request %d spans several replicas; the descent follows one owner", i)
			}
		}
		ss := setups[owner]
		if ss == nil {
			var err error
			if ss, err = newSearchSetup(owner, f.fx.spec.landmarks); err != nil {
				return fail("descent: ALT tables: %v", err)
			}
			setups[owner] = ss
		}
		nextID := 0
		add := func(parent int, name string, start time.Time, dur time.Duration, count int) int {
			nextID++
			at := int64(start.Sub(origin))
			d.spans = append(d.spans, span{Trace: i, Span: nextID, Parent: parent, Name: name, Start: at, End: at + int64(dur), Count: count})
			return nextID
		}

		t0, dur, ok := fastest(func(int) (time.Duration, bool) {
			ans, dur := c.do(f.gwts.URL, rq)
			return dur, ans != nil
		})
		if !ok {
			return fail("descent: gateway request %d failed", i)
		}
		rt.client = dur
		clientSpan := add(0, "client.request", t0, dur, 0)

		t0, dur, ok = fastest(func(int) (time.Duration, bool) {
			ans, dur := c.do(owner.ts.URL, rq)
			if ans != nil {
				rt.cached = ans[0].Cached
			}
			return dur, ans != nil
		})
		if !ok {
			return fail("descent: replica request %d failed", i)
		}
		rt.server = dur
		serverSpan := add(clientSpan, "server.http", t0, dur, 0)
		if rt.cached {
			d.per = append(d.per, rt) // a hit never reaches the engine
			continue
		}

		var bq []routing.BatchQuery
		if rq.post {
			for _, qi := range rq.items {
				q := p.queries[qi]
				bq = append(bq, routing.BatchQuery{Source: q.src, Dest: q.dst, Opts: q.options()})
			}
			d.workers = min(runtime.GOMAXPROCS(0), len(bq))
		}
		var bestEngine time.Duration
		t0, dur, ok = fastest(func(rep int) (time.Duration, bool) {
			t0 := time.Now()
			var busy time.Duration
			if rq.post {
				items := owner.eng.RouteBatch(ctx, bq, 0)
				for _, it := range items {
					if it.Err != nil {
						return 0, false
					}
					busy += it.Elapsed
				}
			} else if _, err := owner.eng.RouteCtx(ctx, q0.src, q0.dst, q0.options()); err != nil {
				return 0, false
			}
			dur := time.Since(t0)
			if !rq.post {
				busy = dur
			}
			if rep == 0 || dur < bestEngine {
				bestEngine, rt.itemBusy = dur, busy
			}
			return dur, true
		})
		if !ok {
			return fail("descent: engine refused request %d", i)
		}
		rt.engine = dur
		engineSpan := add(serverSpan, "engine.route", t0, dur, len(rq.items))

		for _, qi := range rq.items {
			q := p.queries[qi]
			var res *routing.Result
			var allocs uint64
			t0, dur, ok = fastest(func(int) (time.Duration, bool) {
				m0 := mallocs()
				t0 := time.Now()
				r, err := ss.search(q, nil, nil, nil)
				dur := time.Since(t0)
				res, allocs = r, mallocs()-m0
				return dur, err == nil
			})
			if !ok {
				return fail("descent: bare search of query %d failed", qi)
			}
			if answerDigest(res.Path, res.Prob, res.Dist.Mean()) != p.refAt(qi, owner, c.baseEpoch).digest {
				return fail("descent: bare search of query %d differs from the engine's answer", qi)
			}
			rt.search += dur
			d.searches++
			d.searchAllocs += allocs
			d.expansions += res.Expansions
			d.labels += res.GeneratedLabels
			d.prunedPotential += res.PrunedPotential
			d.prunedPivot += res.PrunedPivot
			d.prunedDominance += res.PrunedDominance
			d.arenaBytes += res.ArenaBytes
			searchSpan := add(engineSpan, "routing.search", t0, dur, 0)

			// The timed run: operands are captured on the first go only, so
			// the faster, second one is the timing wrappers and nothing else.
			var st costerStats
			var pot tracedPotentials
			var bestDur time.Duration
			for rep := 0; rep < descentReps; rep++ {
				var s costerStats
				var pt tracedPotentials
				cap := d.cap
				if rep > 0 {
					cap = &capture{convStride: 1, estStride: 1} // limit 0: keeps nothing
				}
				t0 = time.Now()
				if _, err := ss.search(q, &s, &pt, cap); err != nil {
					return fail("descent: traced search: %v", err)
				}
				if dur := time.Since(t0); rep == 0 || dur < bestDur {
					bestDur, st, pot = dur, s, pt
				}
			}
			rt.searchTraced += bestDur
			add(searchSpan, "routing.potentials_init", pot.start, pot.init, 0)
			if st.convolveCalls > 0 {
				add(searchSpan, "hybrid.extend_convolve", st.firstConvolve, st.convolveBusy, st.convolveCalls)
			}
			if st.estimateCalls > 0 {
				add(searchSpan, "hybrid.extend_estimate", st.firstEstimate, st.estimateBusy, st.estimateCalls)
			}
			d.potentialsInit += pot.init
			d.potentialEvals += pot.evals
			d.convolveBusy += st.convolveBusy
			d.estimateBusy += st.estimateBusy
			d.convolveCalls += st.convolveCalls
			d.estimateCalls += st.estimateCalls
			d.sliceSwitches += st.sliceSwitches
		}
		d.per = append(d.per, rt)
	}
	return d
}

// refAt returns what query qi must answer on rep right now: the plan's
// reference while the replica still serves the epoch it was set up
// with, otherwise a fresh direct answer from the engine.
func (p *plan) refAt(qi int, rep *replica, baseEpoch uint64) *refAnswer {
	if rep.eng.ModelEpoch() == baseEpoch {
		return &p.refs[qi]
	}
	q := p.queries[qi]
	res, err := rep.eng.RouteCtx(context.Background(), q.src, q.dst, q.options())
	if err != nil {
		return &refAnswer{}
	}
	return &refAnswer{digest: answerDigest(res.Path, res.Prob, res.Dist.Mean())}
}

// writeSpans writes the spans as JSON lines and checks the file's own
// invariant on the way: every parent is a span of the same trace.
func writeSpans(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	known := make(map[[2]int]bool, len(spans))
	for _, s := range spans {
		known[[2]int{s.Trace, s.Span}] = true
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(file)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if s.Parent != 0 && !known[[2]int{s.Trace, s.Parent}] {
			file.Close()
			return "", fmt.Errorf("span %d of trace %d names unknown parent %d", s.Span, s.Trace, s.Parent)
		}
		if err := enc.Encode(s); err != nil {
			file.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		file.Close()
		return "", err
	}
	return path, file.Close()
}

// --- probes: the two kernels replayed on their captured operands -----

// probeConvolve times hist.ConvolveInto over the captured operand pairs
// and returns ns per call and multiply-adds per call.
func probeConvolve(cap *capture) (nsPerCall, productsPerCall float64) {
	n := len(cap.convA)
	if n == 0 {
		return 0, 0
	}
	dst := &hist.Hist{}
	pass := func() {
		for i := 0; i < n; i++ {
			if err := hist.ConvolveInto(dst, cap.convA[i], cap.convB[i]); err != nil {
				panic(err) // operands came off one routing grid
			}
		}
	}
	pass() // size dst
	return timePasses(pass, n), float64(cap.productsTotal) / float64(n)
}

// probeInfer times ml.Network.InferRow over the captured feature rows.
func probeInfer(cap *capture) (nsPerCall float64) {
	n := len(cap.rows)
	if n == 0 {
		return 0
	}
	var s ml.InferScratch
	pass := func() {
		for i := 0; i < n; i++ {
			cap.nets[i].InferRow(&s, cap.rows[i])
		}
	}
	pass()
	return timePasses(pass, n)
}

// clockBias is what an empty timed interval reads on this machine: the
// part of every measured extension that is the clock itself.
func clockBias() time.Duration {
	reads := make([]float64, 2001)
	for i := range reads {
		t0 := time.Now()
		reads[i] = float64(time.Since(t0))
	}
	return time.Duration(median(reads))
}

// timePasses repeats pass for at least 100 ms and returns the median
// pass's nanoseconds per call.
func timePasses(pass func(), calls int) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < 100*time.Millisecond; {
		t0 := time.Now()
		pass()
		per = append(per, float64(time.Since(t0))/float64(calls))
	}
	return median(per)
}

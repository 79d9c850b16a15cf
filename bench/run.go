package main

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"stochroute/internal/gateway"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/traj"
)

// runConfig is one invocation: a workload, a seed, a run length.
type runConfig struct {
	def       *workloadDef
	sc        *scale
	seed      uint64
	runLength time.Duration
	trace     bool
	outDir    string
}

// runReport is everything a run prints.
type runReport struct {
	result result
	values map[string]float64 // metric values by name, for the readable listing
	decls  []metricDecl
	info   map[string]any
	notes  []string // why the run is invalid, if it is

	spansFile   string
	clockBiasNS float64
}

// stage is a set-up fleet with its plan and warmed clients.
type stage struct {
	fx      *fixture
	fleet   *fleet
	plan    *plan
	clients []*client
}

func (s *stage) close() {
	for _, c := range s.clients {
		c.closeIdle()
	}
	s.fleet.close()
}

// setUp builds the fixture, starts the fleet and sends every distinct
// query through the gateway once, from the clients that will measure:
// connections are open, pools are sized and (with the cache on) every key
// is cached when it returns. p is nil on the first set-up of a run, which
// then also generates the plan — harness work, kept out of the set-up time.
func setUp(cfg runConfig, p *plan) (*stage, error) {
	fx, err := buildFixture(cfg.def.fixture(cfg.sc))
	if err != nil {
		return nil, err
	}
	f, err := startFleet(fx, cfg.def.fleet(cfg.sc))
	if err != nil {
		return nil, err
	}
	if p == nil {
		if p, err = cfg.def.plan(cfg.sc, fx, cfg.seed); err != nil {
			f.close()
			return nil, fmt.Errorf("%s: plan: %w", cfg.def.name, err)
		}
	}
	st := &stage{fx: fx, fleet: f, plan: p}
	baseEpoch := fx.eng.ModelEpoch()
	samples := 1 << 14
	if len(p.requests) > 1024 {
		samples = 1 << 18 // the hit workload answers in well under a millisecond
	}
	for i := 0; i < cfg.def.clients; i++ {
		st.clients = append(st.clients, newClient(fx.g, p, baseEpoch, samples))
	}
	warm := p.warmup()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range st.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k := i; k < len(warm); k += len(st.clients) {
				c.do(f.gwts.URL, &warm[k])
			}
		}(i, c)
	}
	wg.Wait()
	fx.times.warmup = time.Since(t0)
	for _, c := range st.clients {
		if c.log.failed > 0 {
			st.close()
			return nil, fmt.Errorf("%s: warm-up: %s", cfg.def.name, strings.Join(c.log.errs, "; "))
		}
		// The measured phase starts with clean counters but keeps what the
		// warm-up learned about each query's answer.
		seen := c.log.seen
		c.log = newClientLog(samples)
		c.log.seen = seen
	}
	return st, nil
}

// run executes one invocation end to end.
func run(cfg runConfig) (*runReport, error) {
	load0 := loadavg()
	reps := cfg.sc.setupReps
	if cfg.trace {
		reps = 1
	}
	// Set up several times and keep the last fleet: one set-up is shorter
	// than one stall of a noisy neighbour, and the first one in a process
	// also pays for a cold heap (see quietSetup).
	var st *stage
	var p *plan
	var setups []setupTimes
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		var err error
		if st, err = setUp(cfg, p); err != nil {
			return nil, err
		}
		p = st.plan
		setups = append(setups, st.fx.times)
	}
	defer st.close()

	// A traced run spends half its length on the untraced phase — enough
	// for the counters and the block spread it reports — and the rest on
	// the descent.
	phaseLength := cfg.runLength
	if cfg.trace {
		phaseLength /= 2
	}
	ph := runPhase(st.fleet, p, st.clients, cfg.sc.workFor(cfg.def.name, phaseLength))
	rep := &runReport{values: make(map[string]float64)}
	if ph.err != nil {
		rep.notes = append(rep.notes, ph.err.Error())
	}

	// Resident heap: what the fleet holds on to once the phase's garbage
	// is gone (two cycles, so finalisers' garbage goes too).
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	agg := aggregate(ph)
	verify(st, ph, agg, rep)

	v := rep.values
	v["setup_s"] = quietSetup(setups).Seconds()
	v["route_qps"] = float64(len(st.clients)) * float64(p.perBlock) / max(agg.quietBlock.Seconds(), 1e-9)
	v["route_p50_ms"] = median(agg.slotQuiet)
	v["cpu_ms_per_query"] = quietCPU(ph)
	v["allocs_per_query"] = float64(ph.mallocs) / float64(max(agg.answered, 1))
	v["resident_heap_mb"] = float64(ms.HeapAlloc) / (1 << 20)
	v["answer_kl"] = p.kl

	rep.decls = endToEnd
	if cfg.trace {
		rep.decls = perLayer
		if err := traceRun(cfg, st, ph, agg, rep); err != nil {
			rep.notes = append(rep.notes, err.Error())
		}
	}

	rep.info = map[string]any{
		"workload":       cfg.def.name,
		"seed":           cfg.seed,
		"scale":          cfg.sc.name,
		"trace":          cfg.trace,
		"run_seconds":    cfg.runLength.Seconds(),
		"phase_seconds":  ph.wall.Seconds(),
		"setups_s":       setupParts(setups),
		"answers_digest": fmt.Sprintf("%016x", agg.digest),
		"noisy":          agg.blockSpread > 0.25,
		"block_spread":   agg.blockSpread,
		"block_walls_s":  agg.blockWalls,
		"blocks":         agg.blocks,
		"rounds":         len(ph.rounds),
		"samples":        len(agg.latSorted),
		"route_p99_ms":   quantile(agg.latSorted, 0.99),
		"search_counters_per_query": map[string]float64{
			"expansions": float64(agg.expansions) / float64(max(agg.answered, 1)),
			"convolved":  float64(agg.convolved) / float64(max(agg.answered, 1)),
			"estimated":  float64(agg.estimated) / float64(max(agg.answered, 1)),
		},
		"fixture": map[string]any{
			"name":         st.fx.spec.name,
			"vertices":     st.fx.g.NumVertices(),
			"edges":        st.fx.g.NumEdges(),
			"slices":       st.fx.eng.NumSlices(),
			"trajectories": len(st.fx.trajs),
			"landmarks":    st.fx.spec.landmarks,
			"replicas":     len(st.fleet.reps),
			"clients":      len(st.clients),
			"distinct":     len(p.queries),
			"per_block":    p.perBlock,
		},
		"env": map[string]any{
			"nproc":         runtime.NumCPU(),
			"gomaxprocs":    runtime.GOMAXPROCS(0),
			"gogc":          pinnedGOGC,
			"go":            runtime.Version(),
			"loadavg_start": load0,
			"loadavg_end":   loadavg(),
		},
		"invalid": rep.notes,
	}
	if rep.spansFile != "" {
		rep.info["spans_file"] = rep.spansFile
		rep.info["clock_bias_ns"] = rep.clockBiasNS
	}
	rep.result = result{
		Correct:   len(rep.notes) == 0 && agg.failed == 0,
		Attempted: max(agg.attempted, 1),
		Failed:    agg.failed,
		Metrics:   collect(rep.decls, v),
	}
	return rep, nil
}

// setupParts renders each set-up's stage times for the info line.
func setupParts(runs []setupTimes) []map[string]float64 {
	out := make([]map[string]float64, len(runs))
	for i, t := range runs {
		out[i] = map[string]float64{
			"netgen": t.netgen.Seconds(), "trajectories": t.trajectories.Seconds(), "train": t.train.Seconds(),
			"landmarks": t.landmarks.Seconds(), "model_set": t.modelSet.Seconds(), "fleet_start": t.fleetStart.Seconds(),
			"warmup": t.warmup.Seconds(), "total": t.total().Seconds(),
		}
	}
	return out
}

// aggregated is the clients' logs folded together.
type aggregated struct {
	attempted, failed, answered int
	blocks                      int
	// slotQuiet is, per position in the request list, the lower-quartile
	// latency (ms) over all its repetitions by all clients; quietBlock is
	// their sum — what one block takes when nothing disturbs it.
	slotQuiet   []float64
	quietBlock  time.Duration
	blockSpread float64     // (q3-q1)/median of block walls
	blockWalls  [][]float64 // per client, in order
	latSorted   []float64
	respBytes   int64
	expansions  int64
	convolved   int64
	estimated   int64
	seen        map[obsKey]obsVal
	digest      uint64
	errs        []string
}

func aggregate(ph *phaseResult) *aggregated {
	a := &aggregated{seen: make(map[obsKey]obsVal)}
	var walls, lat []float64
	for _, l := range ph.logs {
		a.attempted += l.attempted
		a.failed += l.failed
		a.respBytes += l.respBytes
		a.expansions += l.expansions
		a.convolved += l.convolved
		a.estimated += l.estimated
		a.errs = append(a.errs, l.errs...)
		lat = append(lat, l.latMS...)
		mine := make([]float64, 0, len(l.blocks))
		for _, b := range l.blocks {
			mine = append(mine, b.wall.Seconds())
			a.blocks++
			a.answered += b.queries
		}
		a.blockWalls = append(a.blockWalls, mine)
		walls = append(walls, mine...)
		// Clients see the same queries; what one saw must hold for all.
		for k, got := range l.seen {
			if msg := mergeObs(a.seen, k, got); msg != "" {
				a.failed++
				a.errs = append(a.errs, "across clients: "+msg)
			}
		}
	}
	for slot := range ph.logs[0].slotMS {
		var reps []float64
		for _, l := range ph.logs {
			reps = append(reps, l.slotMS[slot]...)
		}
		q := quantile(sortedCopy(reps), 0.25)
		a.slotQuiet = append(a.slotQuiet, q)
		a.quietBlock += time.Duration(q * float64(time.Millisecond))
	}
	a.latSorted = sortedCopy(lat)
	if len(walls) >= 2 {
		a.blockSpread = spread(walls)
	}
	return a
}

// verify applies the run-level checks: no failover, one rebuild per
// ingest round, and (after swaps) gateway answers equal to the engine's
// at the epoch the run ended on. It also folds the base-epoch answers
// into the run's digest.
func verify(st *stage, ph *phaseResult, agg *aggregated, rep *runReport) {
	if agg.failed > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d of %d queries failed: %s", agg.failed, agg.attempted, strings.Join(firstN(agg.errs, 3), "; ")))
	}
	baseEpoch := st.clients[0].baseEpoch
	h := uint64(14695981039346656037)
	for qi := range st.plan.queries {
		o, ok := agg.seen[obsKey{qi, baseEpoch}]
		if !ok {
			rep.notes = append(rep.notes, fmt.Sprintf("query %d never answered at the set-up epoch", qi))
			break
		}
		h = (h ^ o.digest) * 1099511628211
	}
	agg.digest = h

	gs, err := gatewayStats(st.fleet)
	if err != nil {
		rep.notes = append(rep.notes, "gateway /stats: "+err.Error())
	} else if gs.failovers > 0 {
		rep.notes = append(rep.notes, fmt.Sprintf("%d gateway failovers: the fleet was not healthy throughout", gs.failovers))
	}
	rep.values["gateway.failovers"] = float64(gs.failovers)

	for _, r := range st.fleet.reps {
		if r.ing == nil {
			continue
		}
		r.ing.WaitRebuilds()
		s := r.ing.Status()
		if int(s.Rebuilds) != len(ph.rounds) || s.RebuildErrors > 0 {
			rep.notes = append(rep.notes, fmt.Sprintf("replica %s: %d rebuilds (%d failed) for %d ingest rounds", r.id, s.Rebuilds, s.RebuildErrors, len(ph.rounds)))
		}
		rep.values["ingest.rebuilds"] = float64(s.Rebuilds)
		if total := s.Accepted + s.Rejected; total > 0 {
			rep.values["ingest.rejected_share"] = float64(s.Rejected) / float64(total)
		}
		// The readers kept asking while the model changed under them; the
		// generation they ended on must answer like its engine does.
		final := r.eng.ModelEpoch()
		if final == baseEpoch {
			continue
		}
		_, refs := reference(r.eng, st.plan.queries)
		if len(refs) != len(st.plan.queries) {
			continue // a retrained model may leave a query unanswerable; consistency was still checked per epoch
		}
		for qi, ref := range refs {
			if o, ok := agg.seen[obsKey{qi, final}]; ok && o.digest != ref.digest {
				rep.notes = append(rep.notes, fmt.Sprintf("query %d: gateway answer at final epoch %d differs from the engine's", qi, final))
				break
			}
		}
	}
}

// quietCPU is the process CPU per query answered, in ms, of the
// lower-quartile interval between the first client's block boundaries.
func quietCPU(ph *phaseResult) float64 {
	var perQuery []float64
	for _, iv := range ph.intervals {
		if iv.queries > 0 {
			perQuery = append(perQuery, iv.cpu.Seconds()*1000/float64(iv.queries))
		}
	}
	return quantile(sortedCopy(perQuery), 0.25)
}

func firstN(s []string, n int) []string {
	if len(s) > n {
		return s[:n]
	}
	return s
}

// gwStats is the slice of the gateway's /stats the harness reads.
type gwStats struct {
	dispatches uint64 // Σ replica requests
	failovers  uint64
	batchItems uint64
	requests   uint64 // routed client requests (/route + /route/batch)
	batches    uint64
}

func gatewayStats(f *fleet) (gwStats, error) {
	var raw struct {
		Replicas []struct {
			Requests   uint64 `json:"requests"`
			Failovers  uint64 `json:"failovers"`
			BatchItems uint64 `json:"batch_items"`
		} `json:"replicas"`
		Endpoints map[string]struct {
			Requests uint64 `json:"requests"`
		} `json:"endpoints"`
	}
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	if err := getJSON(hc, f.gwts.URL+"/stats", &raw); err != nil {
		return gwStats{}, err
	}
	var s gwStats
	for _, r := range raw.Replicas {
		s.dispatches += r.Requests
		s.failovers += r.Failovers
		s.batchItems += r.BatchItems
	}
	s.batches = raw.Endpoints["/route/batch"].Requests
	s.requests = raw.Endpoints["/route"].Requests + s.batches
	return s, nil
}

// cacheStats sums the replicas' route-cache counters.
func cacheStats(f *fleet) (hits, misses uint64, err error) {
	hc := &http.Client{Timeout: 30 * time.Second}
	defer hc.CloseIdleConnections()
	for _, r := range f.reps {
		var raw struct {
			RouteCache struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"route_cache"`
		}
		if err := getJSON(hc, r.ts.URL+"/stats", &raw); err != nil {
			return 0, 0, err
		}
		hits += raw.RouteCache.Hits
		misses += raw.RouteCache.Misses
	}
	return hits, misses, nil
}

func loadavg() string {
	raw, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(raw))
}

// traceRun is the second half of a -trace run: the descent over one
// block, the probes, and every per-layer metric.
func traceRun(cfg runConfig, st *stage, ph *phaseResult, agg *aggregated, rep *runReport) error {
	v := rep.values
	f, p, fx := st.fleet, st.plan, st.fx
	perQ := func(x float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return x / float64(n)
	}
	msOf := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

	// Counters the measured phase left behind in the program's own /stats.
	gs, err := gatewayStats(f)
	if err != nil {
		return err
	}
	hits, misses, err := cacheStats(f)
	if err != nil {
		return err
	}
	v["client.requests"] = float64(len(agg.latSorted))
	v["client.failed"] = float64(agg.failed)
	v["client.blocks"] = float64(agg.blocks)
	v["client.block_spread"] = agg.blockSpread
	v["client.route_p99_ms"] = quantile(agg.latSorted, 0.99)
	v["gateway.dispatches_per_request"] = perQ(float64(gs.dispatches), int(gs.requests))
	v["gateway.batch_groups_per_request"] = perQ(float64(gs.dispatches), int(gs.batches))
	if gs.batches == 0 {
		v["gateway.batch_groups_per_request"] = 0
	}
	v["server.cache_hit_ratio"] = perQ(float64(hits), int(hits+misses))
	v["server.response_bytes"] = perQ(float64(agg.respBytes), len(agg.latSorted))
	v["runtime.gc_cpu_share"] = ph.gcCPU.Seconds() / max(ph.cpu.Seconds(), 1e-9)
	v["runtime.gc_cycles"] = float64(ph.gcCycles)
	v["runtime.heap_peak_mb"] = float64(ph.heapSys) / (1 << 20)

	t := fx.times
	v["setup.netgen_s"] = t.netgen.Seconds()
	v["setup.trajectories_s"] = t.trajectories.Seconds()
	v["setup.train_s"] = t.train.Seconds()
	v["setup.landmarks_s"] = t.landmarks.Seconds()
	v["setup.fleet_start_s"] = t.fleetStart.Seconds()
	v["setup.warmup_s"] = t.warmup.Seconds()
	v["engine.set_landmarks_s"] = t.landmarks.Seconds()
	v["engine.new_with_modelset_s"] = t.modelSet.Seconds()
	v["hybrid.train_s"] = t.train.Seconds()
	if r := fx.eng.Report; r != nil {
		v["hybrid.kl_hybrid"] = r.MeanKLHybrid
		v["hybrid.kl_convolution"] = r.MeanKLConv
	}
	if len(ph.rounds) > 0 {
		var rebuilt, delivered []float64
		for _, r := range ph.rounds {
			rebuilt = append(rebuilt, r.rebuilt.Seconds())
			delivered = append(delivered, r.delivered.Seconds())
		}
		v["ingest.rebuild_s"] = median(rebuilt)
		v["ingest.trajs_per_s"] = float64(cfg.sc.ingestBatch) / median(delivered)
	}

	// The descent, on a client of its own so its requests do not mix with
	// the measured phase's log.
	dc := newClient(fx.g, p, st.clients[0].baseEpoch, 1<<12)
	defer dc.closeIdle()
	d := runDescent(f, p, dc, cfg.sc)
	agg.attempted += dc.log.attempted
	agg.failed += dc.log.failed
	if d.err != nil {
		return d.err
	}
	if dc.log.failed > 0 {
		return fmt.Errorf("descent: %s", strings.Join(dc.log.errs, "; "))
	}
	path, err := writeSpans(cfg.outDir, cfg.def.name, d.spans)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	rep.spansFile = path

	// Per-request self times: a layer's span minus its child's, request by
	// request, then the median over requests — constant per-request costs
	// (proxying, decoding, encoding) are what these layers have, and the
	// median is deaf to the odd stalled request.
	batch := p.requests[0].post
	var gwSelf, hit, srvSelf, engSelf, front []float64
	var clientWall, engineWall, itemBusy, search, searchTraced time.Duration
	for _, r := range d.per {
		gwSelf = append(gwSelf, msOf(r.client-r.server))
		clientWall += r.client
		if r.cached {
			hit = append(hit, msOf(r.server))
			front = append(front, msOf(r.client))
			continue
		}
		srvSelf = append(srvSelf, msOf(r.server-r.engine))
		// A batch spreads its items over the engine's workers: its items'
		// summed search time is worth 1/workers of that in wall time.
		inner := r.search
		if batch {
			inner = r.itemBusy
		}
		engSelf = append(engSelf, msOf(r.engine-inner/time.Duration(d.workers)))
		front = append(front, msOf(r.client-r.engine))
		engineWall += r.engine
		itemBusy += r.itemBusy
		search += r.search
		searchTraced += r.searchTraced
	}
	clamp01 := func(x float64) float64 { return min(max(x, 0), 1) }
	v["gateway.proxy_self_ms"] = max(median(gwSelf), 0)
	v["server.hit_ms"] = median(hit)
	if batch {
		v["server.batch_self_ms"] = max(median(srvSelf), 0)
		v["engine.batch_parallel_eff"] = itemBusy.Seconds() / max(float64(d.workers)*engineWall.Seconds(), 1e-9)
	} else {
		v["server.http_self_ms"] = max(median(srvSelf), 0)
	}
	v["engine.route_self_ms"] = max(median(engSelf), 0)
	// Shares of the client's time, over the whole block: the heavy
	// queries are most of it, so these are sums, not medians.
	if clientWall > 0 {
		frontend := 0.0
		for _, ms := range front {
			frontend += ms
		}
		v["trace.search_share"] = clamp01((search / time.Duration(d.workers)).Seconds() / clientWall.Seconds())
		v["trace.frontend_share"] = clamp01(frontend / msOf(clientWall))
	}

	// Every timed extension carries one reading of the clock; take it out.
	bias := clockBias()
	rep.clockBiasNS = float64(bias)
	convolveBusy := max(d.convolveBusy-time.Duration(d.convolveCalls)*bias, 0)
	estimateBusy := max(d.estimateBusy-time.Duration(d.estimateCalls)*bias, 0)
	extendBusy := convolveBusy + estimateBusy
	extends := d.convolveCalls + d.estimateCalls
	n := d.searches
	v["routing.search_ms"] = perQ(msOf(search), n)
	v["routing.search_self_ms"] = perQ(msOf(max(search-d.potentialsInit-extendBusy, 0)), n)
	v["routing.potentials_init_ms"] = perQ(msOf(d.potentialsInit), n)
	v["routing.potential_evals_per_query"] = perQ(float64(d.potentialEvals), n)
	v["routing.expansions_per_query"] = perQ(float64(d.expansions), n)
	v["routing.labels_per_query"] = perQ(float64(d.labels), n)
	v["routing.pruned_potential_share"] = perQ(float64(d.prunedPotential), extends)
	v["routing.pruned_pivot_share"] = perQ(float64(d.prunedPivot), extends)
	v["routing.pruned_dominance_share"] = perQ(float64(d.prunedDominance), extends)
	v["routing.arena_kb_per_query"] = perQ(float64(d.arenaBytes)/1024, n)
	v["routing.allocs_per_search"] = perQ(float64(d.searchAllocs), n)
	v["hybrid.extend_busy_ms_per_query"] = perQ(msOf(extendBusy), n)
	v["hybrid.extend_calls_per_query"] = perQ(float64(extends), n)
	v["hybrid.extend_convolve_us"] = perQ(float64(convolveBusy)/1000, d.convolveCalls)
	v["hybrid.extend_estimate_us"] = perQ(float64(estimateBusy)/1000, d.estimateCalls)
	v["hybrid.estimate_share"] = perQ(float64(d.estimateCalls), extends)
	v["hybrid.slice_switches_per_query"] = perQ(float64(d.sliceSwitches), n)
	if search > 0 {
		v["trace.overhead_share"] = max(searchTraced-search, 0).Seconds() / search.Seconds()
	}

	convNS, products := probeConvolve(d.cap)
	inferNS := probeInfer(d.cap)
	v["hist.convolve_into_ns"] = convNS
	v["hist.convolve_products_per_call"] = products
	v["hist.convolve_busy_ms_per_query"] = perQ(float64(d.convolveCalls), n) * convNS / 1e6
	v["ml.infer_row_ns"] = inferNS
	v["ml.infer_busy_ms_per_query"] = perQ(float64(d.estimateCalls), n) * inferNS / 1e6

	return probes(cfg, st, dc, rep)
}

// probes measures the pieces that neither the phase nor the descent
// reaches on their own: the ring, the harness itself, the hit handler,
// the ingest fold, a knowledge-base build and a model swap.
func probes(cfg runConfig, st *stage, dc *client, rep *runReport) error {
	v := rep.values
	f, p, fx := st.fleet, st.plan, st.fx

	ring := func() {
		for _, q := range p.queries {
			f.ring.Owner(gateway.KeyForPair(int(q.src), int(q.dst)))
		}
	}
	v["gateway.ring_lookup_ns"] = timePasses(ring, len(p.queries))

	// The harness against a handler that does nothing: what a request
	// costs on the client side of the measurement.
	canned := append([]byte(nil), dc.body.Bytes()...)
	null := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned) // a write error here means the probe client hung up
	}))
	nc := newClient(fx.g, p, dc.baseEpoch, 1<<12)
	last := &p.requests[len(p.requests)-1]
	const nullCalls = 1000
	nc.do(null.URL, last)
	m0 := mallocs()
	for i := 0; i < nullCalls; i++ {
		nc.do(null.URL, last)
	}
	v["client.allocs_per_request"] = float64(mallocs()-m0) / nullCalls
	nc.closeIdle()
	null.Close()
	if nc.log.failed > 0 {
		return fmt.Errorf("null-handler probe: %s", strings.Join(nc.log.errs, "; "))
	}

	// A cached key answered by the replica's handler alone, no sockets.
	if f.reps[0].srv != nil && !p.requests[0].post {
		q := p.queries[p.requests[0].items[0]]
		rep0 := f.owner(q.src, q.dst)
		req := httptest.NewRequest(http.MethodGet, p.requests[0].target, nil)
		h := rep0.srv.Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Header().Get("X-Cache") == "hit" {
			const hitCalls = 2000
			m0 := mallocs()
			for i := 0; i < hitCalls; i++ {
				h.ServeHTTP(httptest.NewRecorder(), req)
			}
			v["server.allocs_per_hit"] = float64(mallocs()-m0) / hitCalls
		}
	}

	if len(p.driftSample) > 0 {
		g, width := fx.g, fx.spec.cfg.Hybrid.Width
		n := float64(len(p.driftSample))
		t0 := time.Now()
		traj.NewObservationStore(g, width).Collect(p.driftSample)
		v["traj.collect_us_per_traj"] = float64(time.Since(t0).Microseconds()) / n
		// Seed is the ingestor's fold without the triggers: validate,
		// bucket, collect, merge.
		side := ingest.New(f.reps[0].eng, ingest.Config{Hybrid: fx.spec.cfg.Hybrid, Drift: ingest.DriftConfig{Window: -1}}, nil)
		t0 = time.Now()
		if _, rejected := side.Seed(p.driftSample); rejected > 0 {
			return errors.New("fold probe: drifted trajectories rejected")
		}
		v["ingest.fold_us_per_traj"] = float64(time.Since(t0).Microseconds()) / n
	}

	eng := f.reps[0].eng
	h := fx.spec.cfg.Hybrid
	t0 := time.Now()
	if _, err := hybrid.BuildKnowledgeBase(fx.g, eng.Observations(), h.Width, h.MinPairObs); err != nil {
		return fmt.Errorf("knowledge-base probe: %w", err)
	}
	v["hybrid.build_kb_s"] = time.Since(t0).Seconds()

	// Re-publishing the serving model is a swap with nothing to retrain:
	// the snapshot build — ALT tables included — is all that is timed.
	// Last, because it moves the epoch.
	t0 = time.Now()
	if _, err := eng.SwapSliceModel(0, eng.SliceModel(0), nil); err != nil {
		return fmt.Errorf("swap probe: %w", err)
	}
	v["engine.swap_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	return nil
}

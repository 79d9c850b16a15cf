package ingest

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/obs"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// Target is the serving engine the ingestor feeds: it exposes the road
// graph trajectories are validated against, the per-slice serving
// knowledge bases drift is scored against, and the epoch-tagged
// per-slice model hot swap a finished rebuild publishes through.
// *stochroute.Engine satisfies the interface. All methods must be safe
// for concurrent use.
type Target interface {
	Graph() *graph.Graph
	// NumSlices is the number of time-of-day slices the serving cost
	// model is partitioned into (1 = time-homogeneous).
	NumSlices() int
	// SliceKnowledgeBase returns the serving knowledge base of one
	// slice (the whole knowledge base for a 1-slice target).
	SliceKnowledgeBase(slice int) *hybrid.KnowledgeBase
	ModelEpoch() uint64
	// SwapSliceModel publishes model as slice's next serving
	// generation, leaving the other slices untouched. Implementations
	// owning derived query-time state (e.g. the engine's ALT landmark
	// tables) rebuild whatever the new model invalidates inside this
	// call, before publishing — the swap returning means the generation
	// is fully consistent, so a slow rebuild shows up here as swap
	// latency rather than as queries racing stale preprocessing.
	SwapSliceModel(slice int, model *hybrid.Model, obs *traj.ObservationStore) (uint64, error)
}

// Config tunes the ingestion subsystem.
type Config struct {
	// Hybrid parameterises background retraining: grid width, minimum
	// pair support, protocol sizes and estimator settings. Width must
	// match the serving model's grid width; cmd/serve passes the serving
	// set's hybrid.ModelSet.Recipe. (Hybrid.Slices is ignored —
	// the slice count comes from the Target.)
	Hybrid hybrid.Config
	// Drift tunes drift detection and the trajectory-count rebuild
	// trigger. Every time-of-day slice gets its own monitor with these
	// settings, so an AM-peak regime change fires — and rebuilds —
	// only the AM-peak slice.
	Drift DriftConfig
	// MinRebuildTrajectories is the minimum per-slice aggregate size
	// before a rebuild of that slice may start (default 200):
	// retraining on a handful of trajectories would replace a good
	// model with noise.
	MinRebuildTrajectories int
	// MaxTrajectories bounds each slice's aggregate in trajectories
	// (default 50000, negative = unbounded), keeping memory and rebuild
	// cost flat and letting post-drift data displace the old regime.
	// Counts are never subtracted: past half the bound a second store
	// receives the same folds, and takes over when a fold would pass the
	// bound; pending trajectories past it alone keep their newest half.
	MaxTrajectories int
	// Metrics is the registry the subsystem's series live in: fold and
	// validation counters, per-slice drift scores and events, hot-swap
	// counts and rebuild durations. Status reads those same series, so
	// /stats and /metrics count every event once. Nil makes the ingestor
	// create its own. Give each ingestor its own registry (or share it
	// with the server it feeds, as cmd/serve does): two ingestors on one
	// registry would share, and so add up, every count.
	Metrics *obs.Registry
	// Tracer, when set, gives the write path span trees: sampled
	// /ingest requests get validate/fold/drift-score child spans, and
	// every background rebuild records an always-sampled trace
	// (endpoint "rebuild": build-kb → train → swap) in the same store
	// the server's /debug/traces reads. Pass the server's tracer.
	Tracer *obs.Tracer
}

func (c Config) withDefaults() Config {
	c.Drift = c.Drift.withDefaults()
	if c.MinRebuildTrajectories <= 0 {
		c.MinRebuildTrajectories = 200
	}
	if c.MaxTrajectories == 0 {
		c.MaxTrajectories = 50000
	}
	return c
}

// SliceStatus is the per-time-of-day-slice view of the subsystem,
// surfaced by the server's /stats endpoint next to the slice's serving
// epoch.
type SliceStatus struct {
	// Trajectories sizes the slice's cumulative aggregate: the
	// trajectories its counts hold, the batch a rebuild is folding onto
	// them and those accepted since.
	Trajectories int `json:"trajectories"`
	// SinceRebuild counts accepted trajectories in this slice since
	// its last rebuild trigger.
	SinceRebuild int  `json:"since_rebuild"`
	Rebuilding   bool `json:"rebuilding"`
	// Rebuilds and DriftEvents are the slice's swap_total and
	// ingest_drift_events_total series.
	Rebuilds    uint64 `json:"rebuilds"`
	DriftEvents uint64 `json:"drift_events"`
	// LastDriftScore is the drifted-edge fraction of this slice's most
	// recently evaluated window: its ingest_drift_score gauge.
	LastDriftScore float64 `json:"last_drift_score"`
	// LastSwapUnixMS is the wall-clock time of this slice's last
	// successful model swap (0 = never).
	LastSwapUnixMS int64 `json:"last_swap_unix_ms"`
	// DriftPending reports that this slice's drift monitor has fired
	// but no rebuild has swapped a fresh model in since: the slice is
	// still serving a generation the monitor judged stale. Cleared by
	// the next successful swap of this slice.
	DriftPending bool `json:"drift_pending"`
}

// Status is a point-in-time snapshot of the subsystem, surfaced by the
// server's /stats endpoint. The scalar counters aggregate across all
// time-of-day slices; Slices breaks them down per slice. Every counter
// is read from the series the registry renders on /metrics.
type Status struct {
	// Accepted and Rejected count live ingestion only; Seeded counts
	// baseline trajectories preloaded with Seed.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Seeded   uint64 `json:"seeded"`
	// Trajectories and EdgeObservations size the cumulative aggregate
	// (seeded + live, after any age-out, summed across slices) as the
	// slices' Trajectories do; AggregatePrunes counts MaxTrajectories
	// age-outs.
	Trajectories     int    `json:"trajectories"`
	EdgeObservations int    `json:"edge_observations"`
	AggregatePrunes  uint64 `json:"aggregate_prunes"`
	// SinceRebuild counts accepted trajectories since the last rebuild
	// trigger (max across slices — "how stale could any slice be").
	SinceRebuild  int    `json:"since_rebuild"`
	Rebuilding    bool   `json:"rebuilding"`
	Rebuilds      uint64 `json:"rebuilds"`
	RebuildErrors uint64 `json:"rebuild_errors"`
	DriftEvents   uint64 `json:"drift_events"`
	// LastDriftScore is the drifted-edge fraction of the most recently
	// evaluated window (any slice).
	LastDriftScore float64 `json:"last_drift_score"`
	// LastSwapUnixMS is the wall-clock time of the last successful
	// model swap (0 = never).
	LastSwapUnixMS int64 `json:"last_swap_unix_ms"`
	// Degraded is true while any slice has DriftPending set — the
	// service is knowingly serving at least one stale generation. The
	// server surfaces it on /healthz as a readiness hint.
	Degraded bool `json:"degraded"`
	// Slices is the per-time-of-day-slice breakdown, indexed by slice.
	Slices []SliceStatus `json:"slices"`
}

// Ingestor is the streaming write path: it validates incoming
// trajectories, appends them to their time-of-day slice's aggregate,
// monitors each slice for drift against that slice's serving model,
// and rebuilds + hot-swaps individual slices in the background when
// their triggers fire — AM-peak drift retrains only the AM-peak model
// while the other slices keep serving their generation. All methods
// are safe for concurrent use.
type Ingestor struct {
	target Target
	cfg    Config
	logf   func(format string, args ...any)
	k      int

	empty *folded // what every run starts from; folds never write to it

	mu    sync.Mutex
	aggs  []sliceAggregate // the aggregate, one per slice
	drift []*DriftMonitor  // one window per slice
	// slices is the per-slice status: triggers read it, Status copies
	// it and derives the totals. Status fills in its Trajectories from
	// aggs and its Rebuilds, DriftEvents and LastDriftScore from series.
	slices []SliceStatus
	// series is each slice's telemetry. Its swaps, driftEvents and
	// driftScore move under mu, with the slices entry they belong to.
	series    []sliceSeries
	rebuildWG sync.WaitGroup

	// The lifetime counters, registered in Config.Metrics and read back
	// by Status.
	accepted, rejected, seeded, prunes, rebuildErrors *obs.Counter

	lastDriftScore atomic.Uint64 // math.Float64bits
}

// sliceSeries is one slice's series in Config.Metrics.
type sliceSeries struct {
	folded, driftEvents, swaps *obs.Counter
	driftScore                 *obs.Gauge
	rebuildSecs                *obs.Histogram
}

// New assembles an ingestor over target. Progress lines go to logW
// (nil silences them).
func New(target Target, cfg Config, logW io.Writer) *Ingestor {
	cfg = cfg.withDefaults()
	logf := func(string, ...any) {}
	if logW != nil {
		logf = func(format string, args ...any) { fmt.Fprintf(logW, format+"\n", args...) }
	}
	k := target.NumSlices()
	if k < 1 {
		k = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	in := &Ingestor{
		target: target,
		cfg:    cfg,
		logf:   logf,
		k:      k,
		empty: &folded{
			store:  traj.NewObservationStore(target.Graph(), cfg.Hybrid.Width),
			sample: reservoir{r: *rng.New(hybrid.Seed).Split("prefix sample")},
		},
		aggs:   make([]sliceAggregate, k),
		drift:  make([]*DriftMonitor, k),
		slices: make([]SliceStatus, k),
		series: make([]sliceSeries, k),
		accepted: reg.Counter("ingest_accepted_total",
			"Live trajectories accepted into the ingestion aggregates."),
		rejected: reg.Counter("ingest_rejected_total",
			"Trajectories rejected by ingestion validation."),
		seeded: reg.Counter("ingest_seeded_total",
			"Trajectories seeded at startup (not counted as live)."),
		prunes: reg.Counter("ingest_aggregate_prunes_total",
			"Aggregate prunes (oldest trajectories dropped at the cap)."),
		rebuildErrors: reg.Counter("ingest_rebuild_errors_total",
			"Background model rebuilds that failed."),
	}
	secs := obs.ExponentialBuckets(0.01, 4, 10) // 10ms .. ~45min
	for s := range in.drift {
		in.aggs[s].counted = in.empty
		in.drift[s] = NewDriftMonitor(cfg.Drift, cfg.Hybrid.Width)
		l := obs.L("slice", strconv.Itoa(s))
		in.series[s] = sliceSeries{
			folded: reg.Counter("ingest_folded_total",
				"Trajectories folded into each slice's aggregate.", l),
			driftEvents: reg.Counter("ingest_drift_events_total",
				"Drift-monitor firings per slice.", l),
			swaps: reg.Counter("swap_total",
				"Successful model hot swaps per slice.", l),
			driftScore: reg.Gauge("ingest_drift_score",
				"Latest drift score (JS divergence) per slice.", l),
			rebuildSecs: reg.Histogram("ingest_rebuild_seconds",
				"Background rebuild duration per slice, in seconds.", secs, l),
		}
	}
	return in
}

// sliceAggregate is one slice's aggregate, oldest first: the counts the
// last rebuild folded, the batch a rebuild is folding onto them, and the
// trajectories accepted since (pending, which with that batch is what
// uncounted sizes). young, from the first fold after counted passes
// half of MaxTrajectories, receives the same folds. latched is the
// reason of a trigger that fired while a rebuild was in flight, for that
// rebuild to act on as it finishes ("" for none).
type sliceAggregate struct {
	counted, young *folded
	pending        []traj.Trajectory
	uncounted      tally
	latched        string
}

// folded is a run of trajectories as a rebuild keeps it: the store the
// engine serves, the prefix sample the learner walks, and its size.
type folded struct {
	store  *traj.ObservationStore
	sample reservoir
	tally
}

// fold returns f with batch added and leaves f as it was.
func (f *folded) fold(batch []traj.Trajectory, sampleSize int) *folded {
	store := *f.store
	store.Collect(batch)
	return &folded{store: &store, sample: f.sample.offer(batch, sampleSize), tally: f.plus(tallyOf(batch))}
}

// reservoir is a seeded uniform sample of the trajectories offered to
// it (Vitter's Algorithm R): every one, in arrival order, until it holds
// size; then the n-th offered (from 0) takes a uniformly drawn slot with
// probability size/(n+1). It depends only on the order of the offers.
type reservoir struct {
	items []traj.Trajectory
	seen  int
	r     rng.RNG
}

// offer returns the reservoir after trs and leaves res as it was.
func (res reservoir) offer(trs []traj.Trajectory, size int) reservoir {
	res.items = slices.Clone(res.items)
	for i := range trs {
		if len(res.items) < size {
			res.items = append(res.items, trs[i])
		} else if j := res.r.Intn(res.seen + 1); j < size {
			res.items[j] = trs[i]
		}
		res.seen++
	}
	return res
}

// tally counts trajectories and the edge traversals they hold.
type tally struct{ trajs, edges int }

func tallyOf(trs []traj.Trajectory) tally {
	t := tally{trajs: len(trs)}
	for i := range trs {
		t.edges += len(trs[i].Edges)
	}
	return t
}

func (t tally) plus(u tally) tally { return tally{t.trajs + u.trajs, t.edges + u.edges} }

// NumSlices returns the number of time-of-day slices the ingestor
// partitions its aggregate into (the target's slice count).
func (in *Ingestor) NumSlices() int { return in.k }

// Seed preloads the aggregate with baseline trajectories (for example
// the offline training set the serving model came from) without
// feeding the drift monitors or triggering rebuilds. Returns how many
// were accepted and rejected.
func (in *Ingestor) Seed(trs []traj.Trajectory) (accepted, rejected int) {
	return in.fold(context.Background(), trs, false)
}

// Ingest validates a batch of trajectories and appends them to their
// departure slices' aggregates, feeds the per-slice drift monitors,
// and — when a slice's drift or trajectory-count trigger fires — kicks
// off a background rebuild of that slice's model, or latches the trigger
// for the rebuild in flight. Invalid trajectories (discontinuous, unknown
// edges, non-finite or negative times or departures) are counted and
// skipped, never fatal. Returns how many were accepted and rejected.
func (in *Ingestor) Ingest(trs []traj.Trajectory) (accepted, rejected int) {
	return in.fold(context.Background(), trs, true)
}

// IngestCtx is Ingest with trace-context propagation: when ctx carries
// a sampled span (the server's /ingest root), the fold emits
// "ingest-validate", "ingest-fold" and per-slice "drift-score" child
// spans. With an unsampled ctx it is exactly Ingest.
func (in *Ingestor) IngestCtx(ctx context.Context, trs []traj.Trajectory) (accepted, rejected int) {
	return in.fold(ctx, trs, true)
}

// sliceRebuild is a background rebuild decided under the mutex and
// launched after it: the batch, and the slice's counts to fold it onto.
type sliceRebuild struct {
	slice          int
	reason         string
	counted, young *folded
	batch          []traj.Trajectory
}

func (in *Ingestor) fold(ctx context.Context, trs []traj.Trajectory, live bool) (accepted, rejected int) {
	g := in.target.Graph()
	_, vsp := obs.StartSpan(ctx, "ingest-validate")
	valid := make([]traj.Trajectory, 0, len(trs))
	for i := range trs {
		// An empty trip, or one Validate rejects, would corrupt the
		// aggregate.
		if !trs[i].Acceptable(g) {
			rejected++
			continue
		}
		valid = append(valid, trs[i])
	}
	accepted = len(valid)
	if vsp != nil {
		vsp.SetInt("accepted", int64(accepted))
		vsp.SetInt("rejected", int64(rejected))
		vsp.End()
	}
	if live {
		in.accepted.Add(uint64(accepted))
		in.rejected.Add(uint64(rejected))
	} else {
		in.seeded.Add(uint64(accepted))
	}
	if accepted == 0 {
		return
	}
	_, fsp := obs.StartSpan(ctx, "ingest-fold")
	buckets := traj.SplitBySlice(valid, in.k)
	var pending []sliceRebuild
	in.mu.Lock()
	for s, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		in.series[s].folded.Add(uint64(len(bucket)))
		a := &in.aggs[s]
		a.pending = append(a.pending, bucket...)
		a.uncounted = a.uncounted.plus(tallyOf(bucket))
		if bound := in.cfg.MaxTrajectories; bound > 0 && len(a.pending) > bound {
			// Everything older than the newest half ages out: the counts,
			// and a batch a rebuild is folding (it trains on it but does
			// not publish it). A fresh array frees what is dropped.
			keep, empty := max(bound/2, 1), *in.empty
			in.agedOut(s, a.counted.trajs+a.uncounted.trajs-keep, keep)
			a.pending = append([]traj.Trajectory(nil), a.pending[len(a.pending)-keep:]...)
			a.counted, a.young, a.uncounted = &empty, nil, tallyOf(a.pending)
		}
		if !live {
			continue
		}
		st := &in.slices[s]
		st.SinceRebuild += len(bucket)
		for i := range bucket {
			in.drift[s].Observe(&bucket[i])
		}
		if trigger, reason := in.checkTriggersLocked(ctx, s); trigger {
			if p, ok := in.startLocked(s, reason); ok {
				pending = append(pending, p)
			}
		}
	}
	in.mu.Unlock()
	if fsp != nil {
		fsp.SetInt("rebuilds_triggered", int64(len(pending)))
		fsp.End()
	}

	for _, p := range pending {
		in.rebuildWG.Add(1)
		go in.rebuild(p)
	}
	return
}

// startLocked acts on a trigger of slice s: it latches the trigger
// while a rebuild of the slice is in flight, drops it below
// MinRebuildTrajectories, and otherwise takes the pending batch for a
// rebuild the caller launches once it releases in.mu, which it holds.
func (in *Ingestor) startLocked(s int, reason string) (sliceRebuild, bool) {
	st, a := &in.slices[s], &in.aggs[s]
	if st.Rebuilding {
		a.latched = reason
		return sliceRebuild{}, false
	}
	if a.counted.trajs+a.uncounted.trajs < in.cfg.MinRebuildTrajectories {
		return sliceRebuild{}, false
	}
	st.Rebuilding = true
	st.SinceRebuild = 0
	p := sliceRebuild{slice: s, reason: reason, counted: a.counted, young: a.young, batch: a.pending}
	a.pending = nil
	return p, true
}

// agedOut counts and logs one age-out of slice s.
func (in *Ingestor) agedOut(s, dropped, kept int) {
	in.prunes.Inc()
	in.logf("ingest: slice %d aggregate pruned: dropped %d oldest trajectories, retained %d", s, dropped, kept)
}

// checkTriggersLocked evaluates slice s's drift window (when full) and
// its trajectory-count trigger. Callers hold in.mu. ctx carries the
// fold's trace context: a full-window evaluation is the expensive step
// of the write path, so it gets its own span.
func (in *Ingestor) checkTriggersLocked(ctx context.Context, s int) (bool, string) {
	if in.drift[s].Ready() {
		_, dsp := obs.StartSpan(ctx, "drift-score")
		rep := in.drift[s].Evaluate(in.target.SliceKnowledgeBase(s))
		if dsp != nil {
			dsp.SetInt("slice", int64(s))
			dsp.SetFloat("score", rep.Score)
			dsp.SetBool("fired", rep.Fired)
			dsp.SetInt("drifted", int64(rep.Drifted))
			dsp.SetInt("checked", int64(rep.Checked))
			dsp.End()
		}
		in.lastDriftScore.Store(math.Float64bits(rep.Score))
		in.series[s].driftScore.Set(rep.Score)
		if rep.Fired {
			in.series[s].driftEvents.Inc()
			// The slice is now knowingly stale: degraded until a rebuild
			// swaps a fresh generation in (even if one is already in
			// flight — it predates this evidence).
			in.slices[s].DriftPending = true
			in.logf("ingest: slice %d drift fired: %d/%d edges past threshold (max JS %.3f, mean %.3f)",
				s, rep.Drifted, rep.Checked, rep.MaxDivergence, rep.MeanDivergence)
			return true, "drift"
		}
	}
	if in.cfg.Drift.RebuildEvery > 0 && in.slices[s].SinceRebuild >= in.cfg.Drift.RebuildEvery {
		return true, "trajectory count"
	}
	return false, ""
}

// foldBatch folds a rebuild's batch onto the counts its slice held at
// the trigger, off the lock, and publishes the result as the slice's
// aggregate unless an age-out dropped those counts meanwhile. Nothing
// is subtracted: when the fold would pass MaxTrajectories, the young
// run takes over (or, should even that pass it, the batch alone).
func (in *Ingestor) foldBatch(p sliceRebuild) *folded {
	bound, size := in.cfg.MaxTrajectories, in.cfg.Hybrid.PrefixRows
	onto, young := p.counted, p.young
	aged := bound > 0 && onto.trajs+len(p.batch) > bound
	if aged {
		onto, young = cmp.Or(young, in.empty), nil
		if onto.trajs+len(p.batch) > bound {
			onto = in.empty
		}
	}
	if bound > 0 && young == nil && onto.trajs > bound/2 {
		young = in.empty
	}
	next := onto.fold(p.batch, size)
	if young != nil {
		young = young.fold(p.batch, size)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if a := &in.aggs[p.slice]; a.counted == p.counted {
		if aged {
			in.agedOut(p.slice, p.counted.trajs+len(p.batch)-next.trajs, next.trajs)
		}
		a.counted, a.young, a.uncounted = next, young, tallyOf(a.pending)
	}
	return next
}

// rebuild folds one slice's batch onto its counts (foldBatch),
// re-derives the slice's knowledge base and retrains its hybrid model
// on the result, then hot-swaps model and store into the target — only
// that slice's epoch advances. Runs in its own goroutine; at most one
// rebuild per slice is in flight (different slices may rebuild
// concurrently). A trigger latched meanwhile starts the slice's next
// rebuild, on what has accumulated, as it finishes; it joins rebuildWG
// before this one leaves it, so WaitRebuilds waits for the chain.
func (in *Ingestor) rebuild(p sliceRebuild) {
	defer func() {
		in.mu.Lock()
		in.slices[p.slice].Rebuilding = false
		next, chained := sliceRebuild{}, false
		if a := &in.aggs[p.slice]; a.latched != "" {
			next, chained = in.startLocked(p.slice, a.latched)
			a.latched = ""
		}
		in.mu.Unlock()
		if chained {
			in.rebuildWG.Add(1)
			go in.rebuild(next)
		}
		in.rebuildWG.Done()
	}()
	start := time.Now()
	// Every rebuild gets a trace (no sampling: rebuilds are rare and
	// exactly what an operator goes to /debug/traces for — "where did
	// that 2-second rebuild spend its time" is the build-kb/train/swap
	// breakdown below). Filter with /debug/traces?endpoint=rebuild.
	rctx, root := in.cfg.Tracer.StartBackground("rebuild", obs.NewRequestID())
	root.SetInt("slice", int64(p.slice))
	root.SetStr("reason", p.reason)
	err := func() (err error) {
		// A panic is this rebuild's error; the replica lives on.
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		_, ksp := obs.StartSpan(rctx, "build-kb")
		g := in.target.Graph()
		next := in.foldBatch(p)
		ksp.SetInt("folded", int64(len(p.batch)))
		root.SetInt("trajectories", int64(next.trajs))
		kb, err := hybrid.BuildKnowledgeBase(g, next.store, in.cfg.Hybrid.Width, in.cfg.Hybrid.MinPairObs)
		ksp.SetError(err)
		ksp.End()
		if err != nil {
			return err
		}
		_, tsp := obs.StartSpan(rctx, "train")
		model, report, err := hybrid.Train(kb, next.store, next.sample.items, nil, in.cfg.Hybrid)
		tsp.SetError(err)
		tsp.End()
		if err != nil {
			return err
		}
		_, wsp := obs.StartSpan(rctx, "swap")
		epoch, err := in.target.SwapSliceModel(p.slice, model, next.store)
		if err != nil {
			wsp.SetError(err)
			wsp.End()
			return err
		}
		wsp.SetInt("epoch", int64(epoch))
		wsp.End()
		in.mu.Lock()
		in.slices[p.slice].LastSwapUnixMS = time.Now().UnixMilli()
		in.series[p.slice].swaps.Inc()
		// A fresh generation is serving: whatever drift evidence was
		// pending for this slice has been answered.
		in.slices[p.slice].DriftPending = false
		in.mu.Unlock()
		in.series[p.slice].rebuildSecs.Observe(time.Since(start).Seconds())
		in.logf("ingest: slice %d rebuild (%s): trained on %d trajectories in %s (KL hybrid %.4f vs conv %.4f); slice serving epoch %d",
			p.slice, p.reason, next.trajs, time.Since(start).Round(time.Millisecond),
			report.MeanKLHybrid, report.MeanKLConv, epoch)
		return nil
	}()
	root.SetError(err)
	in.cfg.Tracer.Finish(root)
	if err != nil {
		in.rebuildErrors.Inc()
		in.logf("ingest: slice %d rebuild (%s) failed after %s: %v",
			p.slice, p.reason, time.Since(start).Round(time.Millisecond), err)
	}
}

// WaitRebuilds blocks until every rebuild kicked off by prior Ingest
// calls has finished. Meant for tests and orderly shutdown; do not
// call it concurrently with Ingest.
func (in *Ingestor) WaitRebuilds() { in.rebuildWG.Wait() }

// Status snapshots the subsystem's counters. The per-slice table is
// the state; every scalar that has a per-slice counterpart is its sum,
// maximum or disjunction.
func (in *Ingestor) Status() Status {
	st := Status{
		Accepted:        in.accepted.Value(),
		Rejected:        in.rejected.Value(),
		Seeded:          in.seeded.Value(),
		AggregatePrunes: in.prunes.Value(),
		RebuildErrors:   in.rebuildErrors.Value(),
		LastDriftScore:  math.Float64frombits(in.lastDriftScore.Load()),
	}
	in.mu.Lock()
	st.Slices = append([]SliceStatus(nil), in.slices...)
	for s, a := range in.aggs {
		t := a.counted.plus(a.uncounted)
		sl, ser := &st.Slices[s], in.series[s]
		sl.Trajectories = t.trajs
		sl.Rebuilds, sl.DriftEvents = ser.swaps.Value(), ser.driftEvents.Value()
		sl.LastDriftScore = ser.driftScore.Value()
		st.EdgeObservations += t.edges
	}
	in.mu.Unlock()
	for _, sl := range st.Slices {
		st.Trajectories += sl.Trajectories
		st.SinceRebuild = max(st.SinceRebuild, sl.SinceRebuild)
		st.Rebuilding = st.Rebuilding || sl.Rebuilding
		st.Rebuilds += sl.Rebuilds
		st.DriftEvents += sl.DriftEvents
		st.LastSwapUnixMS = max(st.LastSwapUnixMS, sl.LastSwapUnixMS)
		st.Degraded = st.Degraded || sl.DriftPending
	}
	return st
}

// Degraded reports whether any slice's drift monitor has fired without
// a successful rebuild swapping that slice since — i.e. the service is
// knowingly serving at least one stale generation. Cheaper than a full
// Status snapshot; the server's /healthz and the degraded gauge call it
// per request/scrape.
func (in *Ingestor) Degraded() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	for s := range in.slices {
		if in.slices[s].DriftPending {
			return true
		}
	}
	return false
}

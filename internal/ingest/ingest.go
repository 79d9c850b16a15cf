package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/obs"
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
	// pair support, estimator and classifier settings. Width must
	// match the serving model's grid width. (Hybrid.Slices is ignored —
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
	// MaxTrajectories bounds each slice's cumulative aggregate
	// (default 50000, negative = unbounded). Past the bound the oldest
	// half of that slice ages out, keeping memory and rebuild cost flat
	// on a long-running service and letting post-drift data displace
	// the old regime instead of being forever diluted by it.
	MaxTrajectories int
	// Metrics, when set, receives the subsystem's telemetry: fold and
	// validation counters, per-slice drift scores and events, hot-swap
	// counts and rebuild durations. Nil disables recording (the /stats
	// counters are unaffected either way).
	Metrics *obs.IngestMetrics
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
	// Trajectories sizes the slice's cumulative aggregate.
	Trajectories int `json:"trajectories"`
	// SinceRebuild counts accepted trajectories in this slice since
	// its last rebuild trigger.
	SinceRebuild int    `json:"since_rebuild"`
	Rebuilding   bool   `json:"rebuilding"`
	Rebuilds     uint64 `json:"rebuilds"`
	DriftEvents  uint64 `json:"drift_events"`
	// LastDriftScore is the drifted-edge fraction of this slice's most
	// recently evaluated window.
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
// time-of-day slices; Slices breaks them down per slice.
type Status struct {
	// Accepted and Rejected count live ingestion only; Seeded counts
	// baseline trajectories preloaded with Seed.
	Accepted uint64 `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	Seeded   uint64 `json:"seeded"`
	// Trajectories and EdgeObservations size the cumulative aggregate
	// (seeded + live, after any age-out, summed across slices);
	// AggregatePrunes counts MaxTrajectories age-outs.
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

	mu sync.Mutex
	// trajs is the aggregate: every accepted trajectory per slice
	// (after any age-out). A rebuild derives its observation store
	// from it; edgeObs is Σ len(tr.Edges) over it.
	trajs   [][]traj.Trajectory
	edgeObs int
	drift   []*DriftMonitor // one window per slice
	// slices is the only per-slice state: triggers read it, Status
	// copies it and derives the totals. Its Trajectories field is
	// filled in by Status from len(trajs[s]).
	slices    []SliceStatus
	rebuildWG sync.WaitGroup

	metrics *obs.IngestMetrics // nil = recording disabled

	accepted       atomic.Uint64
	rejected       atomic.Uint64
	seeded         atomic.Uint64
	prunes         atomic.Uint64
	rebuildErrors  atomic.Uint64
	lastDriftScore atomic.Uint64 // math.Float64bits
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
	in := &Ingestor{
		target:  target,
		cfg:     cfg,
		logf:    logf,
		k:       k,
		trajs:   make([][]traj.Trajectory, k),
		drift:   make([]*DriftMonitor, k),
		slices:  make([]SliceStatus, k),
		metrics: cfg.Metrics,
	}
	for s := range in.drift {
		in.drift[s] = NewDriftMonitor(cfg.Drift, cfg.Hybrid.Width)
	}
	return in
}

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
// and — when a slice's drift or trajectory-count trigger fires and no
// rebuild of that slice is in flight — kicks off a background rebuild
// of that slice's model. Invalid trajectories (discontinuous, unknown
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

// sliceRebuild is one pending background rebuild decided under the
// mutex and launched after it is released.
type sliceRebuild struct {
	slice  int
	reason string
	trajs  []traj.Trajectory
}

func (in *Ingestor) fold(ctx context.Context, trs []traj.Trajectory, live bool) (accepted, rejected int) {
	g := in.target.Graph()
	_, vsp := obs.StartSpan(ctx, "ingest-validate")
	valid := make([]traj.Trajectory, 0, len(trs))
	edges := 0
	for i := range trs {
		if err := validateTrajectory(g, &trs[i]); err != nil {
			rejected++
			continue
		}
		valid = append(valid, trs[i])
		edges += len(trs[i].Edges)
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
		in.metrics.Accepted(uint64(accepted))
		in.metrics.Rejected(uint64(rejected))
	} else {
		in.seeded.Add(uint64(accepted))
		in.metrics.Seeded(uint64(accepted))
	}
	if accepted == 0 {
		return
	}
	_, fsp := obs.StartSpan(ctx, "ingest-fold")
	buckets := traj.SplitBySlice(valid, in.k)
	var pending []sliceRebuild
	in.mu.Lock()
	in.edgeObs += edges
	for s, bucket := range buckets {
		if len(bucket) == 0 {
			continue
		}
		in.metrics.Folded(s, uint64(len(bucket)))
		in.trajs[s] = append(in.trajs[s], bucket...)
		if in.cfg.MaxTrajectories > 0 && len(in.trajs[s]) > in.cfg.MaxTrajectories {
			in.pruneLocked(s)
		}
		if !live {
			continue
		}
		st := &in.slices[s]
		st.SinceRebuild += len(bucket)
		for i := range bucket {
			in.drift[s].Observe(&bucket[i])
		}
		trigger, reason := in.checkTriggersLocked(ctx, s)
		if trigger && !st.Rebuilding && len(in.trajs[s]) >= in.cfg.MinRebuildTrajectories {
			st.Rebuilding = true
			st.SinceRebuild = 0
			pending = append(pending, sliceRebuild{
				slice:  s,
				reason: reason,
				// O(1) snapshot: in.trajs[s] is append-only between
				// prunes (appends past the clamped cap never enter this
				// view) and pruneLocked replaces the slice wholesale,
				// leaving an outstanding snapshot on the old backing
				// array.
				trajs: in.trajs[s][:len(in.trajs[s]):len(in.trajs[s])],
			})
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

// pruneLocked ages out the oldest half of slice s's aggregate once it
// exceeds Config.MaxTrajectories: the newest half is copied to a fresh
// backing array, so a rebuild's view taken earlier keeps the old one
// and an in-flight rebuild is unaffected. Callers hold in.mu.
func (in *Ingestor) pruneLocked(s int) {
	keep := in.cfg.MaxTrajectories / 2
	if keep < 1 {
		keep = 1
	}
	dropped := len(in.trajs[s]) - keep
	for i := range in.trajs[s][:dropped] {
		in.edgeObs -= len(in.trajs[s][i].Edges)
	}
	in.trajs[s] = append([]traj.Trajectory(nil), in.trajs[s][dropped:]...)
	in.prunes.Add(1)
	in.metrics.Pruned(1)
	in.logf("ingest: slice %d aggregate pruned: dropped %d oldest trajectories, retained %d", s, dropped, keep)
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
		in.slices[s].LastDriftScore = rep.Score
		in.metrics.DriftScore(s, rep.Score)
		if rep.Fired {
			in.slices[s].DriftEvents++
			in.metrics.DriftEvent(s)
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

// rebuild collects one slice's observation store from the view of its
// aggregate taken at the trigger, re-derives the slice's knowledge base
// and retrains its hybrid model on it, then hot-swaps model and store
// into the target — only that slice's epoch advances. Runs in its own
// goroutine; at most one rebuild per slice is in flight (different
// slices may rebuild concurrently).
func (in *Ingestor) rebuild(p sliceRebuild) {
	defer func() {
		in.mu.Lock()
		in.slices[p.slice].Rebuilding = false
		in.mu.Unlock()
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
	root.SetInt("trajectories", int64(len(p.trajs)))
	err := func() error {
		_, ksp := obs.StartSpan(rctx, "build-kb")
		store := traj.NewObservationStore(in.target.Graph(), in.cfg.Hybrid.Width)
		store.Collect(p.trajs)
		kb, err := hybrid.BuildKnowledgeBase(in.target.Graph(), store, in.cfg.Hybrid.Width, in.cfg.Hybrid.MinPairObs)
		ksp.SetError(err)
		ksp.End()
		if err != nil {
			return err
		}
		_, tsp := obs.StartSpan(rctx, "train")
		model, report, err := hybrid.Train(kb, store, p.trajs, nil, in.cfg.Hybrid)
		tsp.SetError(err)
		tsp.End()
		if err != nil {
			return err
		}
		_, wsp := obs.StartSpan(rctx, "swap")
		epoch, err := in.target.SwapSliceModel(p.slice, model, store)
		if err != nil {
			wsp.SetError(err)
			wsp.End()
			return err
		}
		wsp.SetInt("epoch", int64(epoch))
		wsp.End()
		in.mu.Lock()
		in.slices[p.slice].LastSwapUnixMS = time.Now().UnixMilli()
		in.slices[p.slice].Rebuilds++
		// A fresh generation is serving: whatever drift evidence was
		// pending for this slice has been answered.
		in.slices[p.slice].DriftPending = false
		in.mu.Unlock()
		in.metrics.Swap(p.slice)
		in.metrics.RebuildDuration(p.slice, time.Since(start))
		in.logf("ingest: slice %d rebuild (%s): trained on %d trajectories in %s (KL hybrid %.4f vs conv %.4f); slice serving epoch %d",
			p.slice, p.reason, len(p.trajs), time.Since(start).Round(time.Millisecond),
			report.MeanKLHybrid, report.MeanKLConv, epoch)
		return nil
	}()
	root.SetError(err)
	in.cfg.Tracer.Finish(root)
	if err != nil {
		in.rebuildErrors.Add(1)
		in.metrics.RebuildError()
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
		Accepted:        in.accepted.Load(),
		Rejected:        in.rejected.Load(),
		Seeded:          in.seeded.Load(),
		AggregatePrunes: in.prunes.Load(),
		RebuildErrors:   in.rebuildErrors.Load(),
		LastDriftScore:  math.Float64frombits(in.lastDriftScore.Load()),
	}
	in.mu.Lock()
	st.EdgeObservations = in.edgeObs
	st.Slices = append([]SliceStatus(nil), in.slices...)
	for s := range st.Slices {
		st.Slices[s].Trajectories = len(in.trajs[s])
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

// validateTrajectory rejects anything that could corrupt the aggregate:
// an empty trip, and whatever traj.Trajectory.Validate rejects.
func validateTrajectory(g *graph.Graph, tr *traj.Trajectory) error {
	if len(tr.Edges) == 0 {
		return errors.New("ingest: empty trajectory")
	}
	return tr.Validate(g)
}

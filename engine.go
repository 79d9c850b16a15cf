package stochroute

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/par"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// modelSnapshot is one immutable serving generation: the time-sliced
// model set (each slice's model with its attached knowledge base), the
// per-slice observation stores they were derived from, and the epoch
// bookkeeping. Queries load the snapshot once and use it consistently
// throughout, so a concurrent swap can never hand half a query the old
// model and half the new one. publish is the only place a generation
// is made and stored.
//
// Epochs are two-level: epoch is the global generation counter — it
// bumps on *every* swap, of any slice, and is what result caches key
// their validity on conservatively. sliceEpochs[s] is the global epoch
// value at which slice s last swapped: a per-slice rebuild advances
// only its own slice's entry, so /stats can show that the AM-peak model
// is three generations newer than the night model. For a 1-slice
// engine sliceEpochs[0] == epoch always, which is exactly the
// pre-temporal behaviour.
type modelSnapshot struct {
	set         *hybrid.ModelSet
	obs         []*traj.ObservationStore // by slice
	epoch       uint64
	sliceEpochs []uint64

	// alt holds the generation's ALT landmark preprocessing (nil when
	// disabled, the default): a table per slice model and one on the
	// min-across-slices metric, one per distinct metric (see
	// routing.ALTSet). Tables are derived from the snapshot's models, so
	// they live and die with the snapshot: publish rebuilds the tables a
	// new model set invalidates *before* storing it — preprocessing cost
	// lands on the swap, never on the query path — and in-flight queries
	// keep using the tables that match the models they started on.
	alt *routing.ALTSet
}

// model0 and kb0 are the slice-0 view: the whole model for 1-slice
// engines, and the canonical "default time" model otherwise (used by
// the public accessors that predate time slicing).
func (s *modelSnapshot) model0() *hybrid.Model      { return s.set.At(0) }
func (s *modelSnapshot) kb0() *hybrid.KnowledgeBase { return s.set.At(0).KB }

// change is what a new generation replaces in the serving one: either
// the model set, with the slices it changes and optionally their
// observation stores, or — when set is nil — the ALT tables. Everything
// it does not replace carries over.
type change struct {
	set    *hybrid.ModelSet
	slices []int                    // the slices set changes; nil means every slice
	obs    []*traj.ObservationStore // the next stores by slice; nil keeps the serving ones
	alt    *routing.ALTSet          // with a nil set: the next tables (nil turns ALT off)
}

// publish makes the generation that c derives from cur (nil for
// generation 1) the serving one and returns its epoch. It is the only
// writer of e.current: callers hold e.swapMu, or own an engine no other
// goroutine sees yet. It alone
//   - checks every changed slice: a knowledge base is attached, built
//     over the engine's graph and on the set's grid width;
//   - advances the global epoch and exactly the changed slices' epochs
//     (every slice's when the ALT tables change);
//   - rebuilds the ALT tables a new model set invalidates (same
//     landmarks — selection depends only on the graph), so no query
//     ever sees new models with stale potentials;
//   - stores the snapshot.
func (e *Engine) publish(cur *modelSnapshot, c change) (uint64, error) {
	next := &modelSnapshot{epoch: 1}
	if cur != nil {
		*next = *cur
		next.epoch++
		next.sliceEpochs = slices.Clone(cur.sliceEpochs)
	}
	if c.set != nil {
		next.set = c.set
	}
	if c.obs != nil {
		next.obs = c.obs
	}
	if next.sliceEpochs == nil {
		next.sliceEpochs = make([]uint64, next.set.K())
	}
	for s := range next.set.K() {
		if c.slices != nil && !slices.Contains(c.slices, s) {
			continue // checked when it was published
		}
		kb := next.set.At(s).KB
		if kb == nil {
			return 0, fmt.Errorf("stochroute: slice %d has no knowledge base attached", s)
		}
		if g := kb.Graph(); g == nil || g.NumVertices() != e.graph.NumVertices() || g.NumEdges() != e.graph.NumEdges() {
			return 0, fmt.Errorf("stochroute: slice %d knowledge base built over a different graph", s)
		}
		// Slice 0 is checked first or was checked when it was published.
		if w := next.set.At(0).KB.Width; kb.Width != w {
			return 0, fmt.Errorf("stochroute: slice %d knowledge base width %v != the set's width %v", s, kb.Width, w)
		}
		next.sliceEpochs[s] = next.epoch
	}
	switch {
	case c.set == nil:
		next.alt = c.alt
	case next.alt != nil:
		var err error
		if next.alt, err = next.alt.Rebuild(c.set); err != nil {
			return 0, err
		}
	}
	e.current.Store(next)
	return next.epoch, nil
}

// Engine is the assembled system: a road network, the trained Hybrid
// Model over it, and the query algorithms. The whole query surface —
// Route, RouteCtx, RouteBatch, PathDistributionAt, PairSumAt and
// friends — is read-only and safe for any number of concurrent
// goroutines on one shared Engine; decision telemetry is kept per
// request and recorded once per answered query (SetSearchMetrics).
//
// The serving model lives behind an epoch-tagged atomic pointer:
// SwapSliceModel and SetLandmarks atomically publish a new model
// generation while queries are in flight. In-flight queries finish on
// the snapshot they started with; new queries see the new epoch. Every
// RouteResult is stamped with the epoch that answered it so callers
// (and the serving layer's caches) can correlate answers with model
// generations.
type Engine struct {
	graph *graph.Graph
	index *graph.GridIndex
	world *traj.World // nil when built from external observations

	current atomic.Pointer[modelSnapshot]
	swapMu  sync.Mutex // serialises swaps; queries never take it

	// searchMetrics, when set, receives one SearchSample per routing
	// query — the per-slice search telemetry behind /metrics. Held
	// behind an atomic pointer so attaching or detaching the recorder
	// never races the query path.
	searchMetrics atomic.Pointer[obs.SearchMetrics]

	// Report is the KL-divergence evaluation captured during training
	// (slice 0's report for a time-sliced engine).
	Report *EvalReport
	// Reports holds one evaluation per time-of-day slice (length
	// NumSlices; nil for engines assembled from pre-trained models).
	Reports []*EvalReport
}

// BuildEngine generates a synthetic network, simulates trajectories,
// and trains the hybrid model — the full pipeline of the paper on the
// synthetic substrate. The engine keeps the world it simulated, and
// that world's analytic truth judges the training report: slice s's
// report reads the pair sums under slice s's mode prior
// (hybrid.WorldOracle). Progress lines go to logW (io.Discard to
// silence; nil defaults to io.Discard).
func BuildEngine(cfg Config, logW io.Writer) (*Engine, error) {
	if logW == nil {
		logW = io.Discard
	}
	logf := func(format string, args ...any) { fmt.Fprintf(logW, format+"\n", args...) }

	g, err := netgen.Generate(cfg.Network)
	if err != nil {
		return nil, fmt.Errorf("stochroute: network generation: %w", err)
	}
	logf("stochroute: network: %d vertices, %d edges", g.NumVertices(), g.NumEdges())

	world, err := traj.NewWorld(g, cfg.World)
	if err != nil {
		return nil, fmt.Errorf("stochroute: world model: %w", err)
	}
	trajs, err := traj.GenerateTrajectories(world, cfg.Walk)
	if err != nil {
		return nil, fmt.Errorf("stochroute: trajectory simulation: %w", err)
	}
	logf("stochroute: simulated %d trajectories", len(trajs))

	return trainEngine(g, trajs, world, cfg.Hybrid, logW)
}

// NewEngineFromObservations builds an engine over an existing graph and
// trajectory set (e.g. a parsed OSM network with map-matched GPS
// trajectories). There is no world, so each slice's training report is
// judged by its held-out empirical pair sums and chi-square labels, as
// in the paper. A trajectory that fails Trajectory.Validate against g
// fails the build.
func NewEngineFromObservations(g *Graph, trajs []Trajectory, cfg hybrid.Config, logW io.Writer) (*Engine, error) {
	return trainEngine(g, trajs, nil, cfg, logW)
}

// trainEngine trains one model per slice of cfg over trajs and
// assembles the engine; a non-nil world is kept and judges the reports.
func trainEngine(g *Graph, trajs []Trajectory, world *World, cfg hybrid.Config, logW io.Writer) (*Engine, error) {
	if logW == nil {
		logW = io.Discard
	}
	k := traj.NumSlices(cfg.Slices)
	obs, err := collectSlices(g, trajs, cfg.Width, k)
	if err != nil {
		return nil, err
	}
	bySlice := traj.SplitBySlice(trajs, k)
	if k > 1 {
		fmt.Fprintf(logW, "stochroute: training %d time-of-day slice models\n", k)
	}
	set, reports, err := hybrid.TrainSlices(g, obs, bySlice, world, cfg)
	if err != nil {
		return nil, fmt.Errorf("stochroute: training: %w", err)
	}
	for s, report := range reports {
		observed, edges, distinct := set.At(s).KB.EdgeCoverage()
		if k > 1 {
			fmt.Fprintf(logW, "stochroute: slice %d: %d trajectories, %d pairs, observed %d of %d edges, %d distinct marginals, KL(hybrid)=%.4f KL(conv)=%.4f on %d held-out pairs\n",
				s, len(bySlice[s]), set.At(s).KB.NumPairs(), observed, edges, distinct, report.MeanKLHybrid, report.MeanKLConv, report.TestPairs)
		} else {
			fmt.Fprintf(logW, "stochroute: observed %d of %d edges, %d distinct marginals, KL(hybrid)=%.4f KL(conv)=%.4f on %d held-out pairs\n",
				observed, edges, distinct, report.MeanKLHybrid, report.MeanKLConv, report.TestPairs)
		}
	}
	eng, err := newEngine(g, set, obs)
	if err != nil {
		return nil, err
	}
	eng.world, eng.Report, eng.Reports = world, reports[0], reports
	return eng, nil
}

// NewEngineWithModelSet assembles an engine over an existing graph,
// trajectory set and an already-trained model set (for example one read
// back with hybrid.ReadModelSet) — the serving path: the trajectories
// are bucketed by departure slice, one knowledge base is rebuilt per
// slice, and each slice's model is attached to its own, with no
// training and no evaluation (Report is nil). The set's grid width must
// match width, a slice that carries a training recipe (Model.Recipe)
// must have been trained on width and minPairObs, and every trajectory
// must pass Trajectory.Validate against g.
func NewEngineWithModelSet(g *Graph, trajs []Trajectory, width float64, minPairObs int, set *hybrid.ModelSet) (*Engine, error) {
	if set == nil || set.K() == 0 {
		return nil, errors.New("stochroute: nil or empty model set")
	}
	for s, m := range set.Models() {
		if r, err := m.Recipe(); err == nil && (r.Width != width || r.MinPairObs != minPairObs) {
			return nil, fmt.Errorf("stochroute: slice %d was trained on a %v s grid with pairs of >= %d observations, not on %v s and %d",
				s, r.Width, r.MinPairObs, width, minPairObs)
		}
	}
	k := set.K()
	obs, err := collectSlices(g, trajs, width, k)
	if err != nil {
		return nil, err
	}
	// The slices' knowledge bases are independent of one another and each
	// attaches to its own model, so they build concurrently.
	err = par.For(k, 0, func(s int) error {
		kb, err := hybrid.BuildKnowledgeBase(g, obs[s], width, minPairObs)
		if err != nil {
			return fmt.Errorf("stochroute: slice %d knowledge base: %w", s, err)
		}
		if err := set.At(s).AttachKB(kb); err != nil {
			return fmt.Errorf("stochroute: slice %d: %w", s, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return newEngine(g, set, obs)
}

// collectSlices checks the graph, the grid width and every trajectory,
// then bins the trajectories into k per-slice observation stores on
// that grid: the constructors' shared first step.
func collectSlices(g *Graph, trajs []Trajectory, width float64, k int) ([]*traj.ObservationStore, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("stochroute: nil or empty graph")
	}
	if err := traj.CheckWidth(width); err != nil {
		return nil, fmt.Errorf("stochroute: %w", err)
	}
	for i := range trajs {
		if err := trajs[i].Validate(g); err != nil {
			return nil, fmt.Errorf("stochroute: trajectory %d: %w", i, err)
		}
	}
	return traj.CollectSlices(g, width, k, trajs), nil
}

// newEngine assembles an engine over g and publishes set, built from
// the stores obs, as its generation 1.
func newEngine(g *Graph, set *hybrid.ModelSet, obs []*traj.ObservationStore) (*Engine, error) {
	eng := &Engine{graph: g, index: graph.NewGridIndex(g, 500)}
	if _, err := eng.publish(nil, change{set: set, obs: obs}); err != nil {
		return nil, err
	}
	return eng, nil
}

// Graph returns the engine's road network.
func (e *Engine) Graph() *Graph { return e.graph }

// ModelSet returns the currently serving time-sliced model set.
func (e *Engine) ModelSet() *hybrid.ModelSet { return e.current.Load().set }

// SliceModel returns the currently serving model of one time-of-day
// slice.
func (e *Engine) SliceModel(slice int) *Model { return e.current.Load().set.At(slice) }

// SliceKnowledgeBase returns the currently serving knowledge base of
// one time-of-day slice.
func (e *Engine) SliceKnowledgeBase(slice int) *KnowledgeBase {
	return e.current.Load().set.At(slice).KB
}

// Observations returns the observation aggregate the currently serving
// model generation was derived from (slice 0's store for a time-sliced
// engine).
func (e *Engine) Observations() *ObservationStore { return e.current.Load().obs[0] }

// NumSlices returns the number of time-of-day slices the engine's cost
// model is partitioned into (1 = time-homogeneous).
func (e *Engine) NumSlices() int { return e.current.Load().set.K() }

// SliceOf maps a departure timestamp (seconds since local midnight,
// wrapped) to the time-of-day slice that would serve it.
func (e *Engine) SliceOf(depart float64) int { return e.current.Load().set.SliceOf(depart) }

// ModelEpoch returns the monotonically increasing global generation
// number of the serving model set. The initial set is epoch 1; every
// swap — whole-set or single-slice — bumps it.
func (e *Engine) ModelEpoch() uint64 { return e.current.Load().epoch }

// SliceEpoch returns the generation of one slice's serving model: the
// global epoch value at which that slice last swapped. For a 1-slice
// engine SliceEpoch(0) == ModelEpoch().
func (e *Engine) SliceEpoch(slice int) uint64 {
	cur := e.current.Load()
	if slice < 0 || slice >= len(cur.sliceEpochs) {
		return cur.epoch
	}
	return cur.sliceEpochs[slice]
}

// SliceEpochs returns a copy of every slice's serving generation,
// indexed by slice.
func (e *Engine) SliceEpochs() []uint64 {
	cur := e.current.Load()
	return append([]uint64(nil), cur.sliceEpochs...)
}

// SwapSliceModel atomically publishes model (with its attached
// knowledge base) as the next serving generation of one time-of-day
// slice, leaving every other slice's model — and epoch — untouched;
// for a 1-slice engine, SwapSliceModel(0, …) replaces the whole serving
// model. This is the hot-swap unit of per-slice online rebuilds: an
// AM-peak drift rebuild replaces only the AM-peak model while the night
// slice keeps serving its generation. Returns the new global epoch
// (which is also the swapped slice's new SliceEpoch). obs optionally
// records the slice's rebuilt observation store (nil keeps the previous
// one). The model's knowledge base must be built over the engine's
// graph on the serving set's grid width. In-flight queries finish on
// the snapshot they started with;
// queries that start after SwapSliceModel returns see the new model and
// carry the new epoch in their RouteResult. Safe to call while any
// number of queries run.
func (e *Engine) SwapSliceModel(slice int, model *Model, obs *ObservationStore) (uint64, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.current.Load()
	set, err := cur.set.WithSlice(slice, model)
	if err != nil {
		return 0, fmt.Errorf("stochroute: SwapSliceModel: %w", err)
	}
	c := change{set: set, slices: []int{slice}}
	if obs != nil {
		// Published generations are immutable: the untouched slices'
		// stores are shared with the serving snapshot.
		c.obs = slices.Clone(cur.obs)
		c.obs[slice] = obs
	}
	return e.publish(cur, c)
}

// SetLandmarks enables ALT landmark potentials for every subsequent
// query and publishes them as a new serving generation. count landmarks
// are selected by farthest-point traversal over a spatial grid's cell
// representatives, and each distinct metric among the slice models'
// optimistic edge times and their min across slices gets one table of
// 2·count Dijkstras (routing.NewALTSet, the helper cmd/train -landmarks
// measures with); slices whose metrics are equal bit for bit share it.
// From then on publish rebuilds the tables each new model set
// invalidates before storing it (routing.ALTSet.Rebuild), keeping
// potentials admissible against whatever models are serving. count 0 disables ALT and returns
// queries to exact per-query backward-Dijkstra potentials.
//
// Preprocessing runs under the swap lock — queries in flight keep
// serving the previous generation and are never blocked. Each table's
// sweeps use every core (GOMAXPROCS) while they do. The epoch bumps
// like any other swap, so result caches keyed on it revalidate.
func (e *Engine) SetLandmarks(count int) error {
	if count < 0 {
		return fmt.Errorf("stochroute: SetLandmarks with negative count %d", count)
	}
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.current.Load()
	var alt *routing.ALTSet
	if count > 0 {
		var err error
		if alt, err = routing.NewALTSet(e.graph, cur.set, count); err != nil {
			return fmt.Errorf("stochroute: SetLandmarks: %w", err)
		}
	}
	_, err := e.publish(cur, change{alt: alt})
	return err
}

// Landmarks reports the ALT landmark count of the serving generation
// (0 when ALT is disabled).
func (e *Engine) Landmarks() int {
	if at := e.current.Load().alt; at != nil {
		return len(at.Landmarks())
	}
	return 0
}

// World returns the synthetic ground-truth world, or nil for engines
// built from external observations.
func (e *Engine) World() *World { return e.world }

// NearestVertex snaps a WGS84 coordinate to the closest vertex.
func (e *Engine) NearestVertex(lat, lon float64) VertexID {
	return e.index.Nearest(geo.Point{Lat: lat, Lon: lon})
}

// Route answers a Probabilistic Budget Routing query with the full
// (non-anytime) search: the returned path maximises the model's
// probability of arriving within budget seconds.
func (e *Engine) Route(source, dest VertexID, budget float64) (*RouteResult, error) {
	return e.RouteCtx(context.Background(), source, dest, RouteOptions{Budget: budget})
}

// RouteCtx exposes every knob of the budget-routing search
// (RouteOptions.MaxDuration makes it anytime: when the limit expires the
// current pivot path is returned and Result.Complete reports whether
// the search finished). The result carries per-request cost-model
// telemetry (NumConvolved / NumEstimated) collected race-free even when
// many queries run at once, plus the ModelEpoch of the generation that
// answered it.
//
// ctx propagates the trace context: when it carries a sampled span (the
// serving layer's root span), the query emits a "search" child span
// annotated with the slice, epoch and search counters, and the PBR
// kernel adds its phase spans beneath it. With an unsampled context
// (context.Background() included) the span API collapses to a
// zero-allocation no-op.
func (e *Engine) RouteCtx(ctx context.Context, source, dest VertexID, opts RouteOptions) (*RouteResult, error) {
	return e.routeOnSnapshot(ctx, e.current.Load(), source, dest, opts)
}

// routeOnSnapshot answers one budget-routing query against an explicit
// model snapshot: the single place where slice selection happens
// (once, from Options.Departure, before the unchanged PBR kernel runs
// — or per extension when Options.TimeExpanded is set) and where
// per-request decision telemetry and the slice/epoch stamps are wired
// onto a result, shared by the single and batched query paths.
func (e *Engine) routeOnSnapshot(ctx context.Context, cur *modelSnapshot, source, dest VertexID, opts RouteOptions) (*RouteResult, error) {
	sctx, sp := obs.StartSpan(ctx, "search")
	slice := cur.set.SliceOf(opts.Departure)
	// qs holds the coster view bound to it. It is pooled: its counts are
	// copied onto the result and nothing keeps the view past the search.
	qs := queryStatsPool.Get().(*hybrid.QueryStats)
	defer releaseQueryStats(qs)
	var coster hybrid.Coster
	if opts.TimeExpanded {
		// The temporal coster re-selects the slice model per extension;
		// on a 1-slice set (or a trip that never leaves its departure
		// slice) it is bit-identical to the departure-slice coster.
		coster = cur.set.TimeExpandedCoster(opts.Departure, qs)
	} else {
		coster = cur.set.At(slice).WithStats(qs)
	}
	// ALT injection: a departure-slice query prunes with its slice's
	// tables, a time-expanded query with the min-across-slices tables
	// (admissible for every slice the search can consult). Callers that
	// pass their own PotentialSource keep it.
	if opts.Potentials == nil && cur.alt != nil {
		if opts.TimeExpanded {
			opts.Potentials = cur.alt.Min()
		} else {
			opts.Potentials = cur.alt.Slice(slice)
		}
	}
	res, err := routing.PBRCtx(sctx, e.graph, coster, source, dest, opts)
	if err != nil {
		sp.SetError(err)
		sp.End()
		return nil, err
	}
	res.NumConvolved = qs.Convolved
	res.NumEstimated = qs.Estimated
	res.ModelEpoch = cur.epochFor(slice, opts)
	res.Slice = slice
	if sp != nil {
		sp.SetInt("slice", int64(slice))
		sp.SetInt("epoch", int64(res.ModelEpoch))
		sp.SetBool("time_expanded", opts.TimeExpanded)
		sp.SetInt("expansions", int64(res.Expansions))
		sp.SetInt("generated_labels", int64(res.GeneratedLabels))
		sp.SetInt("convolved", int64(qs.Convolved))
		sp.SetInt("estimated", int64(qs.Estimated))
		sp.SetInt("arena_bytes", res.ArenaBytes)
		sp.SetBool("found", res.Found)
		sp.SetBool("complete", res.Complete)
		sp.SetFloat("prob", res.Prob)
		sp.End()
	}
	if m := e.searchMetrics.Load(); m != nil {
		m.Observe(obs.SearchSample{
			Slice:           slice,
			TimeExpanded:    opts.TimeExpanded,
			Expansions:      res.Expansions,
			GeneratedLabels: res.GeneratedLabels,
			PrunedPotential: res.PrunedPotential,
			PrunedPivot:     res.PrunedPivot,
			PrunedDominance: res.PrunedDominance,
			Convolved:       qs.Convolved,
			Estimated:       qs.Estimated,
			ArenaBytes:      res.ArenaBytes,
		})
	}
	return res, nil
}

// queryStatsPool recycles routeOnSnapshot's per-query decision counts
// and the coster view bound to them.
var queryStatsPool = sync.Pool{New: func() any { return new(hybrid.QueryStats) }}

// releaseQueryStats zeroes qs before it goes back to the pool: a view
// still bound to it would make WithStats and TimeExpandedCoster allocate
// a second one, and it would keep its model alive.
func releaseQueryStats(qs *hybrid.QueryStats) {
	*qs = hybrid.QueryStats{}
	queryStatsPool.Put(qs)
}

// SetSearchMetrics attaches (or, with nil, detaches) the per-slice
// search-telemetry recorder: from then on every query answered by this
// engine — single, batched, or time-expanded — records its expansion,
// pruning, decision and arena counters into the recorder's histograms.
// Recording is a fixed set of atomic operations per query, adding zero
// allocations to the route path. Safe to call while serving.
func (e *Engine) SetSearchMetrics(m *obs.SearchMetrics) { e.searchMetrics.Store(m) }

// epochFor is the generation stamped on a query's result: the serving
// slice's epoch normally, but the GLOBAL epoch for a time-expanded
// query — such a search may consult any slice within its horizon, so
// only the global counter conservatively identifies every model that
// could have shaped the answer. For a 1-slice engine the two are
// always equal.
func (s *modelSnapshot) epochFor(slice int, opts RouteOptions) uint64 {
	if opts.TimeExpanded {
		return s.epoch
	}
	return s.sliceEpochs[slice]
}

// RouteBatch answers many budget-routing queries as one unit: every
// query runs against the same model snapshot (one epoch, loaded once —
// a hot swap mid-batch never splits the batch across generations) on
// par.For's pool of min(workers, len(queries)) workers; workers <= 0
// uses GOMAXPROCS. Item i of the answer corresponds to queries[i];
// per-query failures (invalid budget, unreachable destination, a panic
// in that query's search) land in that item's Err without affecting
// the rest of the batch, and every item carries the snapshot's epoch.
//
// Cancelling ctx stops the batch between queries: items not yet
// started fail with the context error, while searches already running
// finish (bound them with BatchQuery.Opts.Deadline — the serving layer
// gives a whole batch one shared deadline so an abandoned batch can
// never pin the pool past its request timeout).
//
// Each worker's searches reuse the pooled allocation-free cost kernel,
// so a batch of n queries costs far less than n cold Route calls.
func (e *Engine) RouteBatch(ctx context.Context, queries []routing.BatchQuery, workers int) []routing.BatchItem {
	out := make([]routing.BatchItem, len(queries))
	cur := e.current.Load()
	_ = par.For(len(queries), workers, func(i int) error {
		out[i] = e.batchItem(ctx, cur, i, queries[i])
		return nil
	})
	return out
}

// batchItem answers item i of a batch on snapshot cur; a panic in its
// search is the item's Err, not the end of the batch or the process.
func (e *Engine) batchItem(ctx context.Context, cur *modelSnapshot, i int, q routing.BatchQuery) (item routing.BatchItem) {
	item.Epoch = cur.epochFor(cur.set.SliceOf(q.Opts.Departure), q.Opts)
	if item.Err = ctx.Err(); item.Err != nil {
		return item
	}
	// Each item gets its own child span under the batch's request
	// scope, so one slow item is visible inside the batch's trace
	// instead of vanishing into the aggregate.
	t0 := time.Now()
	ictx, isp := obs.StartSpan(ctx, "batch-item")
	isp.SetInt("index", int64(i))
	isp.SetInt("source", int64(q.Source))
	isp.SetInt("dest", int64(q.Dest))
	defer func() {
		if p := recover(); p != nil {
			item.Result, item.Err = nil, fmt.Errorf("stochroute: batch item %d panicked: %v", i, p)
		}
		isp.SetError(item.Err)
		isp.End()
		item.Elapsed = time.Since(t0)
	}()
	item.Result, item.Err = e.routeOnSnapshot(ictx, cur, q.Source, q.Dest, q.Opts)
	return item
}

// PairSumAt returns the distribution for traversing the adjacent edge
// pair (first, second) under one time-of-day slice's serving model —
// the hot unit of the paper's evaluation, served (and cached) by
// internal/server.
func (e *Engine) PairSumAt(slice int, first, second EdgeID) (*Hist, error) {
	return e.current.Load().set.At(slice).PairSumEstimate(first, second)
}

// MeanRoute returns the classical mean-cost shortest path (the paper's
// pitfall baseline) and its expected travel time in seconds.
func (e *Engine) MeanRoute(source, dest VertexID) ([]EdgeID, float64, error) {
	return routing.MeanCostPath(e.graph, e.current.Load().kb0(), source, dest)
}

// OptimisticTime returns the fastest-possible travel time in seconds
// between the endpoints under the model's admissible lower bounds.
func (e *Engine) OptimisticTime(source, dest VertexID) (float64, error) {
	_, t, err := routing.Dijkstra(e.graph, e.current.Load().kb0().MinEdgeTime, source, dest)
	return t, err
}

// QuantileBudget is the program's one default deadline for a query: the
// q-quantile of the mean-cost route's travel time under the independence
// (convolution) model with 1024 buckets of support, where the route and
// its distribution both read the knowledge base of the slice depart
// falls in. It is the paper's query
// protocol: the deadline comes from the baseline route and leaks no
// oracle information, so the baseline and a budget-routed path are
// judged against the same deadline.
func (e *Engine) QuantileBudget(depart float64, source, dest VertexID, q float64) (float64, error) {
	cur := e.current.Load()
	kb := cur.set.At(cur.set.SliceOf(depart)).KB
	path, _, err := routing.MeanCostPath(e.graph, kb, source, dest)
	if err != nil {
		return 0, err
	}
	dist, err := hybrid.PathCost(&hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 1024}, path)
	if err != nil {
		return 0, err
	}
	return dist.Quantile(q), nil
}

// checkPath reports why edges is not a path of the engine's graph: it
// is empty, names an edge outside [0, NumEdges), or has two consecutive
// edges that do not meet.
func (e *Engine) checkPath(edges []EdgeID) error {
	if len(edges) == 0 {
		return errors.New("stochroute: empty path")
	}
	n := e.graph.NumEdges()
	for i, id := range edges {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("stochroute: path edge %d is %d, outside [0, %d)", i, id, n)
		}
		if i > 0 && e.graph.Edge(edges[i-1]).To != e.graph.Edge(id).From {
			return fmt.Errorf("stochroute: path edges %d and %d do not meet", i-1, i)
		}
	}
	return nil
}

// PathDistributionAt computes the hybrid travel-time distribution of an
// explicit edge path via the iterative virtual-edge procedure, under
// the serving model of the slice a departure timestamp falls in
// (PathDistributionAt(0, …) is slice 0's model).
func (e *Engine) PathDistributionAt(depart float64, edges []EdgeID) (*Hist, error) {
	if err := e.checkPath(edges); err != nil {
		return nil, err
	}
	cur := e.current.Load()
	return hybrid.PathCost(cur.set.At(cur.set.SliceOf(depart)), edges)
}

// PathDistributionExpanded is PathDistributionAt under time-expanded
// slice selection: each edge of the path is costed by the serving
// model of the slice the trip's accumulated mean cost has reached —
// how a RouteOptions.TimeExpanded search would cost the same path. It
// also returns the per-edge slice sequence (slices[i] costed
// edges[i]). For a 1-slice engine it is identical to
// PathDistributionAt.
func (e *Engine) PathDistributionExpanded(depart float64, edges []EdgeID) (*Hist, []int, error) {
	if err := e.checkPath(edges); err != nil {
		return nil, nil, err
	}
	return hybrid.PathCostElapsed(e.current.Load().set.TimeExpandedCoster(depart, nil), edges)
}

// TrueDistribution returns the oracle distribution of a path under the
// synthetic world, or an error for engines without a world.
func (e *Engine) TrueDistribution(edges []EdgeID) (*Hist, error) {
	if err := e.checkPath(edges); err != nil {
		return nil, err
	}
	if e.world == nil {
		return nil, errors.New("stochroute: engine has no ground-truth world")
	}
	return e.world.PathTruth(edges)
}

// SampleQueries draws n routing queries whose straight-line distance
// falls within [loKm, hiKm).
func (e *Engine) SampleQueries(loKm, hiKm float64, n int, seed uint64) ([]Query, error) {
	wg := netgen.NewWorkloadGen(e.graph, seed)
	return wg.SampleCategory(netgen.DistanceCategory{LoKm: loKm, HiKm: hiKm}, n)
}

// LoadGraph reads a network written by Graph.WriteTo (cmd/gennet).
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// OpenEngine assembles an engine from saved artifacts: the network
// (cmd/gennet), the trajectories (cmd/gentraj; one file or
// several concatenated) and the trained model set (SaveModel,
// cmd/train), whose slice count the engine adopts. The per-slice
// knowledge bases the models bind to are rebuilt from the trajectories
// on the grid and pair threshold the file's recipe records
// (ModelSet.Recipe); nothing is retrained. The trajectories are
// returned as well, for a caller that seeds an ingestion aggregate with
// them.
func OpenEngine(netPath, trajPath, modelPath string) (*Engine, []Trajectory, error) {
	g, err := LoadGraph(netPath)
	if err != nil {
		return nil, nil, fmt.Errorf("stochroute: %s: %w", netPath, err)
	}
	tf, err := os.Open(trajPath)
	if err != nil {
		return nil, nil, err
	}
	trs, err := traj.ReadTrajectoryStream(tf, g)
	tf.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("stochroute: %s: %w", trajPath, err)
	}
	mf, err := os.Open(modelPath)
	if err != nil {
		return nil, nil, err
	}
	set, err := hybrid.ReadModelSet(mf)
	mf.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("stochroute: %s: %w", modelPath, err)
	}
	recipe, _ := set.Recipe() // ReadModelSet refuses a set without a valid one
	eng, err := NewEngineWithModelSet(g, trs, recipe.Width, recipe.MinPairObs, set)
	return eng, trs, err
}

// SaveModel writes the currently serving model set to path in the SRH3
// binary format (a time-homogeneous engine is the set with one slice),
// each slice with its training recipe.
func (e *Engine) SaveModel(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hybrid.WriteModelSet(f, e.current.Load().set); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// PairExample returns the hybrid, convolution and (when a world is
// present) ground-truth distributions for one adjacent edge pair — the
// unit the paper's KL evaluation compares.
func (e *Engine) PairExample(first, second EdgeID) (hybridDist, convDist, truth *Hist, err error) {
	cur := e.current.Load()
	hybridDist, err = cur.model0().PairSumEstimate(first, second)
	if err != nil {
		return nil, nil, nil, err
	}
	convDist = hist.MustConvolve(cur.kb0().Edge(first).Marginal, cur.kb0().Edge(second).Marginal)
	if e.world != nil {
		truth = e.world.PairJointSum(first, second, e.graph.Edge(second).From)
	}
	return hybridDist, convDist, truth, nil
}

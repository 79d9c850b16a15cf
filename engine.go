package stochroute

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
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
// sliced observation aggregate they were derived from, and the epoch
// bookkeeping. Queries load the snapshot once and use it consistently
// throughout, so a concurrent swap can never hand half a query the old
// model and half the new one.
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
	obs         *traj.SlicedObservations
	epoch       uint64
	sliceEpochs []uint64
	swappedAt   time.Time

	// alt holds the generation's ALT landmark preprocessing (nil when
	// disabled, the default). Tables are derived from the snapshot's
	// models, so they live and die with the snapshot: every swap path
	// rebuilds the affected tables *before* publishing — preprocessing
	// cost lands on the swap, never on the query path — and in-flight
	// queries keep using the tables that match the models they started
	// on.
	alt *altTables
}

// altTables is one generation's ALT landmark preprocessing (see
// routing.BuildALT): per-slice distance tables built on each slice
// model's optimistic edge times, serving departure-slice queries, and
// one table built on the min-across-slices metric, serving
// time-expanded queries (whose potentials must stay admissible for
// every slice the search can consult). For a 1-slice engine min aliases
// slices[0] — one build, not two.
type altTables struct {
	landmarks []graph.VertexID
	slices    []*routing.ALT
	min       *routing.ALT
}

// model0 and kb0 are the slice-0 view: the whole model for 1-slice
// engines, and the canonical "default time" model otherwise (used by
// the public accessors that predate time slicing).
func (s *modelSnapshot) model0() *hybrid.Model      { return s.set.At(0) }
func (s *modelSnapshot) kb0() *hybrid.KnowledgeBase { return s.set.At(0).KB }
func newSliceEpochs(k int, epoch uint64) []uint64 {
	out := make([]uint64, k)
	for i := range out {
		out[i] = epoch
	}
	return out
}

// successor starts the next generation: a copy of s one epoch on, with
// a fresh swap time and slice epochs of its own to advance. A publisher
// then states only what it replaces; everything else carries over.
func (s *modelSnapshot) successor() *modelSnapshot {
	next := *s
	next.epoch = s.epoch + 1
	next.swappedAt = time.Now()
	next.sliceEpochs = slices.Clone(s.sliceEpochs)
	return &next
}

// Engine is the assembled system: a road network, the trained Hybrid
// Model over it, and the query algorithms. The whole query surface —
// Route, RouteCtx, RouteBatch, AlternativeRoutes, PathDistribution,
// PairSumAt and friends — is read-only and safe for any number of
// concurrent goroutines on one shared Engine; decision telemetry is
// kept per request and added to the engine's lifetime totals once per
// answered query.
//
// The serving model lives behind an epoch-tagged atomic pointer:
// SwapModel (and LoadModel, which is built on it) atomically publishes
// a new model generation while queries are in flight. In-flight
// queries finish on the snapshot they started with; new queries see
// the new epoch. Every RouteResult is stamped with the epoch that
// answered it so callers (and the serving layer's caches) can
// correlate answers with model generations.
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

	// convolved and estimated are the lifetime decision totals: each
	// answered routing query adds its own counts once (routeOnSnapshot).
	convolved atomic.Uint64
	estimated atomic.Uint64

	// Report is the KL-divergence evaluation captured during training
	// (slice 0's report for a time-sliced engine).
	Report *EvalReport
	// Reports holds one evaluation per time-of-day slice (length
	// NumSlices; nil for engines assembled from pre-trained models).
	Reports []*EvalReport
}

// BuildEngine generates a synthetic network, simulates trajectories,
// and trains the hybrid model — the full pipeline of the paper on the
// synthetic substrate. Progress lines go to logW (io.Discard to
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

	eng, err := NewEngineFromObservations(g, trajs, cfg.Hybrid, logW)
	if err != nil {
		return nil, err
	}
	eng.world = world
	return eng, nil
}

// NewEngineFromObservations builds an engine over an existing graph and
// trajectory set (e.g. a parsed OSM network with map-matched GPS
// trajectories). Ground truth for the training evaluation is then the
// held-out empirical pair distributions, as in the paper.
func NewEngineFromObservations(g *Graph, trajs []Trajectory, cfg hybrid.Config, logW io.Writer) (*Engine, error) {
	if logW == nil {
		logW = io.Discard
	}
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("stochroute: nil or empty graph")
	}
	k := traj.NumSlices(cfg.Slices)
	obs := traj.NewSlicedObservations(g, cfg.Width, k)
	obs.Collect(trajs)
	bySlice := traj.SplitBySlice(trajs, k)
	if k > 1 {
		fmt.Fprintf(logW, "stochroute: training %d time-of-day slice models\n", k)
	}
	set, reports, err := hybrid.TrainSlices(g, obs, bySlice, nil, cfg)
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
	eng := &Engine{
		graph:   g,
		index:   graph.NewGridIndex(g, 500),
		Report:  reports[0],
		Reports: reports,
	}
	eng.current.Store(&modelSnapshot{
		set: set, obs: obs, epoch: 1,
		sliceEpochs: newSliceEpochs(k, 1), swappedAt: time.Now(),
	})
	return eng, nil
}

// NewEngineWithModelSet assembles an engine over an existing graph,
// trajectory set and an already-trained model set (for example one read
// back with hybrid.ReadModelSet) — the serving path: the trajectories
// are bucketed by departure slice, one knowledge base is rebuilt per
// slice, and each slice's model is attached to its own, with no
// training and no evaluation (Report is nil). The set's grid width must
// match width.
func NewEngineWithModelSet(g *Graph, trajs []Trajectory, width float64, minPairObs int, set *hybrid.ModelSet) (*Engine, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, errors.New("stochroute: nil or empty graph")
	}
	if set == nil || set.K() == 0 {
		return nil, errors.New("stochroute: nil or empty model set")
	}
	k := set.K()
	obs := traj.NewSlicedObservations(g, width, k)
	obs.Collect(trajs)
	// The slices' knowledge bases are independent of one another and each
	// attaches to its own model, so they build concurrently.
	err := par.For(k, func(s int) error {
		kb, err := hybrid.BuildKnowledgeBase(g, obs.Slice(s), width, minPairObs)
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
	eng := &Engine{
		graph: g,
		index: graph.NewGridIndex(g, 500),
	}
	eng.current.Store(&modelSnapshot{
		set: set, obs: obs, epoch: 1,
		sliceEpochs: newSliceEpochs(k, 1), swappedAt: time.Now(),
	})
	return eng, nil
}

// Graph returns the engine's road network.
func (e *Engine) Graph() *Graph { return e.graph }

// Model returns the currently serving hybrid model (slice 0's model
// for a time-sliced engine — the whole model when NumSlices is 1).
func (e *Engine) Model() *Model { return e.current.Load().model0() }

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
func (e *Engine) Observations() *ObservationStore { return e.current.Load().obs.Slice(0) }

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

// LastSwap returns the serving global epoch and the time it was
// published.
func (e *Engine) LastSwap() (epoch uint64, at time.Time) {
	cur := e.current.Load()
	return cur.epoch, cur.swappedAt
}

// SwapModel atomically publishes model (with its attached knowledge
// base) as the next serving generation of *slice 0* and returns the
// new global epoch — for a 1-slice engine this replaces the whole
// serving model, exactly the pre-temporal contract. obs optionally
// records the observation aggregate the model was rebuilt from (nil
// keeps the previous aggregate). In-flight queries finish on the
// snapshot they started with; queries that start after SwapModel
// returns see the new model and carry the new epoch in their
// RouteResult. Safe to call while any number of queries run.
func (e *Engine) SwapModel(model *Model, obs *ObservationStore) (uint64, error) {
	return e.SwapSliceModel(0, model, obs)
}

// SwapSliceModel atomically publishes model (with its attached
// knowledge base) as the next serving generation of one time-of-day
// slice, leaving every other slice's model — and epoch — untouched.
// This is the hot-swap unit of per-slice online rebuilds: an AM-peak
// drift rebuild replaces only the AM-peak model while the night slice
// keeps serving its generation. Returns the new global epoch (which is
// also the swapped slice's new SliceEpoch). obs optionally records the
// slice's rebuilt observation store (nil keeps the previous one).
func (e *Engine) SwapSliceModel(slice int, model *Model, obs *ObservationStore) (uint64, error) {
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	return e.swapSliceLocked(slice, model, obs)
}

// swapSliceLocked publishes model as slice's next generation. Callers
// hold e.swapMu.
func (e *Engine) swapSliceLocked(slice int, model *Model, obs *ObservationStore) (uint64, error) {
	if model == nil {
		return 0, errors.New("stochroute: SwapModel with nil model")
	}
	kb := model.KB
	if kb == nil {
		return 0, errors.New("stochroute: SwapModel with no knowledge base attached")
	}
	if g := kb.Graph(); g == nil || g.NumVertices() != e.graph.NumVertices() || g.NumEdges() != e.graph.NumEdges() {
		return 0, errors.New("stochroute: SwapModel knowledge base built over a different graph")
	}
	prev := e.current.Load()
	if slice < 0 || slice >= prev.set.K() {
		return 0, fmt.Errorf("stochroute: SwapSliceModel slice %d outside [0, %d)", slice, prev.set.K())
	}
	set, err := prev.set.WithSlice(slice, model)
	if err != nil {
		return 0, err
	}
	nextObs := prev.obs
	if obs != nil {
		// Copy-on-write at the wrapper level only: published
		// generations are immutable, so the untouched slices' stores
		// are shared with the previous snapshot and just the swapped
		// slice's store is replaced — O(K), never O(samples).
		cp := traj.NewSlicedObservations(e.graph, prev.obs.Width(), prev.obs.K())
		for i := 0; i < prev.obs.K(); i++ {
			cp.ReplaceSlice(i, prev.obs.Slice(i))
		}
		cp.ReplaceSlice(slice, obs)
		nextObs = cp
	}
	next := prev.successor()
	next.set, next.obs = set, nextObs
	next.sliceEpochs[slice] = next.epoch
	// With ALT enabled, rebuild only the swapped slice's tables (plus
	// the min-metric table, which depends on every slice) against the
	// incoming model — before the publish below, so no query ever sees
	// new models with stale potentials. Untouched slices keep their
	// tables.
	if prev.alt != nil {
		if next.alt, err = e.buildAlt(set, prev.alt.landmarks, prev); err != nil {
			return 0, err
		}
	}
	e.current.Store(next)
	return next.epoch, nil
}

// swapSetLocked publishes a whole new model set as the next generation,
// bumping the global epoch and every slice's epoch to it. The caller
// (LoadModel) holds e.swapMu, has checked that the set's slice count
// matches the serving set's and has attached the serving knowledge
// bases to it; the observation aggregate carries over.
func (e *Engine) swapSetLocked(set *hybrid.ModelSet) error {
	prev := e.current.Load()
	next := prev.successor()
	next.set = set
	next.sliceEpochs = newSliceEpochs(set.K(), next.epoch)
	// A whole-set swap invalidates every slice's tables: rebuild them
	// (same landmarks — selection depends only on the graph) before
	// publishing.
	if prev.alt != nil {
		var err error
		if next.alt, err = e.buildAlt(set, prev.alt.landmarks, prev); err != nil {
			return err
		}
	}
	e.current.Store(next)
	return nil
}

// SetLandmarks enables ALT landmark potentials for every subsequent
// query: count landmarks are selected by farthest-point traversal over
// the spatial grid's cell representatives, 2·count Dijkstras per slice
// model (plus the min-across-slices tables on a multi-slice engine)
// build the distance tables, and the result is published as a new
// serving generation. From then on every swap path rebuilds the
// affected tables before publishing, keeping potentials admissible
// against whatever models are serving. count 0 disables ALT and returns
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
	prev := e.current.Load()
	var alt *altTables
	if count > 0 {
		lms := routing.SelectLandmarks(e.graph, e.index.CellRepresentatives(), count)
		if len(lms) == 0 {
			return errors.New("stochroute: SetLandmarks found no landmark candidates")
		}
		var err error
		if alt, err = e.buildAlt(prev.set, lms, nil); err != nil {
			return err
		}
	}
	next := prev.successor()
	next.sliceEpochs = newSliceEpochs(prev.set.K(), next.epoch)
	next.alt = alt
	e.current.Store(next)
	return nil
}

// Landmarks reports the ALT landmark count of the serving generation
// (0 when ALT is disabled).
func (e *Engine) Landmarks() int {
	if at := e.current.Load().alt; at != nil {
		return len(at.landmarks)
	}
	return 0
}

// buildAlt builds the per-slice and min-metric ALT tables of set over
// the landmarks lms. With prev non-nil — the serving generation, whose
// tables must be over the same landmarks — a slice still served by the
// model prev served keeps prev's table, so a per-slice swap rebuilds
// that slice alone; the min-metric table depends on every slice and is
// kept only when all of them were.
func (e *Engine) buildAlt(set *hybrid.ModelSet, lms []graph.VertexID, prev *modelSnapshot) (*altTables, error) {
	at := &altTables{landmarks: lms, slices: make([]*routing.ALT, set.K())}
	kept := 0
	for s := range at.slices {
		if prev != nil && prev.set.At(s) == set.At(s) {
			at.slices[s] = prev.alt.slices[s]
			kept++
			continue
		}
		t, err := routing.BuildALT(e.graph, set.At(s).MinEdgeTime, lms)
		if err != nil {
			return nil, fmt.Errorf("stochroute: ALT tables for slice %d: %w", s, err)
		}
		at.slices[s] = t
	}
	switch {
	case set.K() == 1:
		at.min = at.slices[0]
	case kept == set.K():
		at.min = prev.alt.min
	default:
		t, err := routing.BuildALT(e.graph, set.MinEdgeTimeAcrossSlices, lms)
		if err != nil {
			return nil, fmt.Errorf("stochroute: min-metric ALT tables: %w", err)
		}
		at.min = t
	}
	return at, nil
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
	var qs hybrid.QueryStats
	var coster hybrid.Coster
	if opts.TimeExpanded {
		// The temporal coster re-selects the slice model per extension;
		// on a 1-slice set (or a trip that never leaves its departure
		// slice) it is bit-identical to the departure-slice coster.
		coster = cur.set.TimeExpandedCoster(opts.Departure, &qs)
	} else {
		coster = cur.set.At(slice).WithStats(&qs)
	}
	// ALT injection: a departure-slice query prunes with its slice's
	// tables, a time-expanded query with the min-across-slices tables
	// (admissible for every slice the search can consult). Callers that
	// pass their own PotentialSource keep it.
	if opts.Potentials == nil && cur.alt != nil {
		if opts.TimeExpanded {
			opts.Potentials = cur.alt.min
		} else {
			opts.Potentials = cur.alt.slices[slice]
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
	e.convolved.Add(uint64(qs.Convolved))
	e.estimated.Add(uint64(qs.Estimated))
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
// a hot swap mid-batch never splits the batch across generations) on a
// bounded worker pool. workers <= 0 uses GOMAXPROCS. Item i of the
// answer corresponds to queries[i]; per-query failures (invalid
// budget, unreachable destination) land in that item's Err without
// affecting the rest of the batch, and every item carries the
// snapshot's epoch.
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
	if len(queries) == 0 {
		return out
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	cur := e.current.Load()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(queries) {
					return
				}
				q := queries[i]
				epoch := cur.epochFor(cur.set.SliceOf(q.Opts.Departure), q.Opts)
				if err := ctx.Err(); err != nil {
					out[i] = routing.BatchItem{Err: err, Epoch: epoch}
					continue
				}
				// Each item gets its own child span under the batch's
				// request scope, so one slow item is visible inside the
				// batch's trace instead of vanishing into the aggregate.
				t0 := time.Now()
				ictx, isp := obs.StartSpan(ctx, "batch-item")
				isp.SetInt("index", int64(i))
				isp.SetInt("source", int64(q.Source))
				isp.SetInt("dest", int64(q.Dest))
				res, err := e.routeOnSnapshot(ictx, cur, q.Source, q.Dest, q.Opts)
				isp.SetError(err)
				isp.End()
				out[i] = routing.BatchItem{Result: res, Err: err, Epoch: epoch, Elapsed: time.Since(t0)}
			}
		}()
	}
	wg.Wait()
	return out
}

// DecisionCounts returns the engine's lifetime convolve/estimate
// totals: the sum of NumConvolved / NumEstimated over every routing
// query answered so far (single, batched or time-expanded), whichever
// model generation answered it. PairSumAt and PathDistribution are not
// routing queries and do not count.
func (e *Engine) DecisionCounts() (convolved, estimated uint64) {
	return e.convolved.Load(), e.estimated.Load()
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

// PathDistribution computes the hybrid travel-time distribution of an
// explicit edge path via the iterative virtual-edge procedure (slice
// 0's model).
func (e *Engine) PathDistribution(edges []EdgeID) (*Hist, error) {
	return hybrid.PathCost(e.current.Load().model0(), edges)
}

// PathDistributionAt is PathDistribution under the serving model of the
// slice a departure timestamp falls in.
func (e *Engine) PathDistributionAt(depart float64, edges []EdgeID) (*Hist, error) {
	cur := e.current.Load()
	return hybrid.PathCost(cur.set.At(cur.set.SliceOf(depart)), edges)
}

// PathDistributionExpanded is PathDistribution under time-expanded
// slice selection: each edge of the path is costed by the serving
// model of the slice the trip's accumulated mean cost has reached —
// how a RouteOptions.TimeExpanded search would cost the same path. It
// also returns the per-edge slice sequence (slices[i] costed
// edges[i]). For a 1-slice engine it is identical to PathDistribution.
func (e *Engine) PathDistributionExpanded(depart float64, edges []EdgeID) (*Hist, []int, error) {
	return hybrid.PathCostElapsed(e.current.Load().set.TimeExpandedCoster(depart, nil), edges)
}

// ConvolutionDistribution computes the same path's distribution under
// the independence assumption — the baseline the paper improves on.
func (e *Engine) ConvolutionDistribution(edges []EdgeID) (*Hist, error) {
	cur := e.current.Load()
	return hybrid.PathCost(&hybrid.ConvolutionCoster{KB: cur.kb0(), MaxBuckets: cur.model0().MaxBuckets}, edges)
}

// TrueDistribution returns the oracle distribution of a path under the
// synthetic world, or an error for engines without a world.
func (e *Engine) TrueDistribution(edges []EdgeID) (*Hist, error) {
	if e.world == nil {
		return nil, errors.New("stochroute: engine has no ground-truth world")
	}
	return e.world.PathTruth(edges)
}

// TrueDistributionExpanded returns the oracle distribution of a path
// whose trip crosses time-of-day slice boundaries: the world's
// time-expanded path truth for a departure at depart seconds since
// midnight (see traj.World.PathTruthExpanded), plus the per-edge slice
// sequence the oracle traversed. Errors for engines without a world.
func (e *Engine) TrueDistributionExpanded(depart float64, edges []EdgeID) (*Hist, []int, error) {
	if e.world == nil {
		return nil, nil, errors.New("stochroute: engine has no ground-truth world")
	}
	return e.world.PathTruthExpanded(depart, edges)
}

// SampleQueries draws n routing queries whose straight-line distance
// falls within [loKm, hiKm).
func (e *Engine) SampleQueries(loKm, hiKm float64, n int, seed uint64) ([]Query, error) {
	wg := netgen.NewWorkloadGen(e.graph, seed)
	return wg.SampleCategory(netgen.DistanceCategory{LoKm: loKm, HiKm: hiKm}, n)
}

// SaveGraph writes the network to path in the SRG1 binary format.
func (e *Engine) SaveGraph(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := e.graph.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGraph reads a network written by SaveGraph (or cmd/gennet).
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.Read(f)
}

// OpenEngine assembles an engine from saved artifacts: the network
// (SaveGraph, cmd/gennet), the trajectories (cmd/gentraj; one file or
// several concatenated) and the trained model set (SaveModel,
// cmd/train), whose slice count the engine adopts. The per-slice
// knowledge bases the models bind to are rebuilt from the trajectories;
// nothing is retrained. The trajectories are returned as well, for a
// caller that seeds an ingestion aggregate with them.
func OpenEngine(netPath, trajPath, modelPath string, width float64, minPairObs int) (*Engine, []Trajectory, error) {
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
	eng, err := NewEngineWithModelSet(g, trs, width, minPairObs, set)
	return eng, trs, err
}

// SaveModel writes the currently serving model set to path in the SRH2
// binary format (a time-homogeneous engine is the set with one slice).
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

// LoadModel hot-swaps in a model (set) written by SaveModel, attaching
// each slice's model to that slice's currently serving knowledge base
// and bumping the model epoch. The file's slice count must match the
// engine's. A loaded model with MaxBuckets == 0 (unlimited support)
// inherits the previous model's cap. Safe to call while queries are in
// flight.
func (e *Engine) LoadModel(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	set, err := hybrid.ReadModelSet(f)
	if err != nil {
		return err
	}
	// Attach under the swap lock so a concurrent swap (e.g. an ingest
	// rebuild finishing) cannot slip between reading the current
	// knowledge bases and publishing: the loaded models always bind to
	// the knowledge bases they will actually serve with.
	e.swapMu.Lock()
	defer e.swapMu.Unlock()
	cur := e.current.Load()
	if set.K() != cur.set.K() {
		return fmt.Errorf("stochroute: loaded model has %d slices, engine serves %d", set.K(), cur.set.K())
	}
	for s := 0; s < set.K(); s++ {
		m := set.At(s)
		if err := m.AttachKB(cur.set.At(s).KB); err != nil {
			return fmt.Errorf("stochroute: slice %d: %w", s, err)
		}
		if m.MaxBuckets == 0 {
			m.MaxBuckets = cur.set.At(s).MaxBuckets
		}
	}
	return e.swapSetLocked(set)
}

// AlternativeRoute is one member of the stochastic skyline.
type AlternativeRoute = routing.ParetoRoute

// AlternativeRoutes enumerates mutually non-dominated routes between the
// endpoints within the given time horizon: the route set a user with an
// unknown deadline would choose from. The budget-routing answer for any
// budget within the horizon is (up to search caps) a member of this set.
func (e *Engine) AlternativeRoutes(source, dest VertexID, horizon float64, maxRoutes int) ([]AlternativeRoute, error) {
	return routing.ParetoRoutes(e.graph, e.current.Load().model0(), source, dest, routing.ParetoOptions{
		Horizon:   horizon,
		MaxRoutes: maxRoutes,
	})
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

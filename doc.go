// Package stochroute is a Go reproduction of "A Hybrid Learning Approach
// to Stochastic Routing" (Pedersen, Yang, Jensen; ICDE 2020).
//
// Road-network edges have uncertain travel times, and the travel times
// of adjacent edges are spatially dependent: convolving per-edge
// histograms — the classical way to compute a path's travel-time
// distribution — systematically invents outcomes that never occur. The
// paper's Hybrid Model pairs a learned distribution-estimation model
// with a binary classifier that decides, at every intersection, whether
// to convolve (independent pair) or estimate (dependent pair). On top of
// the model sits Probabilistic Budget Routing: given a source, a
// destination and a time budget t, find the path that maximises the
// probability of arriving within t, with an anytime variant that returns
// the best known path when a run-time limit expires.
//
// The package is a facade over the internal implementation:
//
//   - internal/hist — histogram travel-time distributions (convolution,
//     shifting, dominance, divergences) plus the allocation-free kernel
//     primitives: scratch-buffer forms of the hot operations
//     (ConvolveInto, CDFShifted, the In-Place mutators) and the
//     per-search Arena that owns the flat float64 storage behind every
//     routing label
//   - internal/graph, internal/netgen — the road-network substrate: CSR
//     graphs and a synthetic city generator
//   - internal/traj — the traffic world model and trajectory simulation
//     standing in for GPS fleet data, including the time-of-day
//     machinery: departure timestamps (SRT2 codec), per-slice world
//     mode priors and the sliced observation aggregate
//   - internal/ml — the two learners, from scratch: the estimator's
//     network, one MLP shape (dense layers with a ReLU between each
//     two, linear logits under a grouped softmax), and logistic
//     regression
//   - internal/hybrid — the paper's contribution: the hybrid cost model
//   - internal/routing — Dijkstra baselines and Probabilistic Budget
//     Routing with the paper's four prunings and the anytime extension
//   - internal/server — the concurrent routing service: an HTTP/JSON
//     API over a shared engine — single queries and POST /route/batch —
//     with an epoch-validated sharded LRU result cache (run it with
//     cmd/serve, measure it with cmd/loadgen)
//   - internal/ingest — the write path: streaming trajectory ingestion
//     with drift detection and background retraining, published
//     through the engine's epoch-tagged model hot swap (exercise it
//     end to end with cmd/replay against POST /ingest). /ingest appends
//     to a pending batch; a rebuild folds only that batch onto the
//     slice's counts, which carry a seeded prefix sample
//   - internal/exp — the harness that regenerates every table of the
//     paper's evaluation on the engine BuildEngine builds, so a change
//     to the served pipeline shows in them (internal/exp/testdata/
//     small.golden freezes the Small tables)
//
// # The allocation-free cost kernel
//
// A budget-routing query spends nearly all of its time extending label
// distributions: convolve (or estimate) an incoming histogram with the
// next edge, truncate it at the budget horizon, read a few CDFs,
// discard most candidates. Doing that with immutable heap values makes
// the allocator the bottleneck, so the distribution pipeline is built
// as a reusable kernel threaded through every layer:
//
//   - internal/hist provides the scratch-buffer primitives —
//     ConvolveInto(dst, a, b), CDFShifted (pivot pruning's cost
//     shifting without cloning), TruncateAboveInPlace /
//     CapBucketsInPlace / TrimInPlace — and a per-search hist.Arena
//     owning flat []float64 blocks with size-class recycling.
//   - internal/hybrid's Coster contract is the kernel itself: one
//     implementation of an extension, InitialHistInto / ExtendInto
//     writing into a per-search hybrid.Scratch (an arena, a feature
//     vector, MLP activation buffers and predicted-conditional
//     storage). The trained Model, the ConvolutionCoster baseline, the
//     WithStats counting view and the time-expanded coster implement
//     it. Callers that cost a path outside a search — PathCost,
//     PathCostElapsed, PairSumEstimate, and through them
//     PathDistributionAt, PairSumAt and training's evaluation — run on
//     a pooled Scratch and clone out the one histogram they return;
//     the tests pin the kernel to an independent heap copy of the step,
//     bit for bit.
//   - internal/routing runs every PBR search on a pooled workspace
//     that owns the scratch, the label slice, the priority heap and the
//     dominance frontiers (a generation-stamped table over a flat entry
//     slab — no map, nothing to sweep between searches). Label
//     distributions live in the workspace's arena, and labels killed by
//     pruning recycle their buffers immediately.
//
// A warmed search therefore allocates only what escapes it, once, on
// the way out: the Result with its distribution, edge path and slice
// sequence, and the per-request QueryStats that holds the coster view.
// The pivot lives in the workspace until then; a SeedPath is only the
// search's first pivot, so a seeded query's answer is built the same
// way. TestRouteSteadyStateAllocs holds a routed query, seeded or not,
// to 6 allocations at steady state, which is what lets one engine serve
// batch traffic at scale.
//
// # The preprocessing layer: ALT landmark potentials
//
// The second per-query cost after label extension is the potentials
// phase: an exact backward Dijkstra over the whole graph before every
// search. At city scale it is noise; at OSM scale (>1M edges) it
// dominates the query. Engine.SetLandmarks(L) (cmd/serve -landmarks)
// moves that work to preprocessing: L landmarks are selected by
// farthest-point traversal over the spatial grid, 2L Dijkstras per
// distinct metric among the slice models' minimum times and their min
// across slices build landmark distance tables (routing.ALTSet over
// routing.BuildALT; float32, 2·L·V·4 B each, exact on the grid-aligned
// minimum times a knowledge base holds; metrics equal bit for bit share
// one table), and queries bound remaining cost by the triangle
// inequality instead of running Dijkstra — identical answers (potentials
// prune, they never price; equivalence is bit-exact and tested), ≥5x
// faster queries at the million-edge scale (BenchmarkRoutingPBROSM).
//
// The tables are model-derived state, so they live in the epoch-tagged
// snapshot and follow its lifecycle: the engine's one publish point,
// which every constructor, SwapSliceModel and SetLandmarks call,
// rebuilds what the incoming models invalidate before it stores the
// generation (after SwapSliceModel only the affected slice's tables
// plus the min-across-slices tables rebuild), on the swap path rather
// than the query path. The sweeps of one table run on every
// core (internal/par), as do the route pool of the trajectory simulator
// (BuildEngine) and the per-slice observation stores, knowledge bases
// and training runs of a generation built from trajectories
// (NewEngineFromObservations, NewEngineWithModelSet); a generation holds
// the same bits however many cores built it, and queries in flight keep
// the previous one meanwhile. Time-expanded queries use tables
// built on the pointwise-min-across-slices metric, which stays
// admissible for every horizon; departure-slice queries use their
// slice's own, tighter tables. Callers with custom preprocessing can
// supply their own RouteOptions.Potentials (the routing.PotentialSource
// contract).
//
// # Concurrency
//
// The engine's whole query surface is read-only and safe for any
// number of goroutines on one shared Engine: the hybrid estimator uses
// the network's pure inference pass, and decision telemetry lives in
// per-request structs (hybrid.QueryStats, surfaced as
// RouteResult.NumConvolved/NumEstimated — extensions built, which
// excludes children the search pruned from the parent label before
// costing them), which an attached obs.SearchMetrics records once per
// answered routing query (the search_convolved and search_estimated
// histograms of /metrics); a model holds no mutable state on the query
// path.
// Earlier versions required serialising Route calls or cloning models
// per goroutine; that caveat is gone.
//
// Engine.RouteBatch answers many queries as one unit: all of them run
// against a single epoch snapshot (a concurrent hot swap never splits
// a batch across model generations) on internal/par's bounded pool,
// each worker reusing the pooled kernel scratch; a panic in one item's
// search is that item's error. The serving layer exposes it as POST
// /route/batch with per-item cache reuse.
//
// The serving model itself lives behind an epoch-tagged atomic
// pointer: Engine.SwapSliceModel (used by internal/ingest after a
// background rebuild) and SetLandmarks publish a new generation
// without pausing queries and without writing to the model they are
// handed, all through one unexported publish that checks the
// changed slices — a knowledge base attached, over the engine's graph,
// on the set's grid width — before any query can see them. In-flight
// queries finish on the snapshot they started with, new queries see
// the new generation, and every RouteResult
// carries the ModelEpoch that answered it so callers and caches can
// tell generations apart.
//
// # Time-of-day slices
//
// Travel-time distributions depend on when you drive: rush hour and
// free flow are different worlds. The engine therefore serves a
// time-sliced cost model — hybrid.ModelSet — that partitions the day
// into K equal slices (configurable via hybrid.Config.Slices; K = 1 is
// the classic time-homogeneous setup and is bit-identical to the
// pre-temporal engine, enforced by an equivalence test). Every layer
// participates:
//
//   - Trajectories carry a departure timestamp (traj.Trajectory.
//     Departure, persisted by the SRT2 codec), the synthetic world can
//     give each slice its own congestion mode prior
//     (traj.WorldConfig.SlicePriors, traj.PeakedSlicePriors), and
//     observations aggregate per slice over a shared edge grid
//     (traj.CollectSlices). A slice's traj.ObservationStore keeps
//     counts on that grid, not samples: per edge a count vector over its
//     grid steps, per adjacent pair its joint counts. The knowledge
//     base, training and the drift monitor read only those counts, so a
//     store — and every model built from it — is the same whatever the
//     order the trajectories arrived in.
//   - One hybrid model is trained per slice on that slice's data
//     (hybrid.TrainSlices) and the set persists as one SRH3 file; the
//     classic time-homogeneous model is the set with K = 1. The file
//     records each model's training recipe (hybrid.Model.Recipe): the
//     grid width and pair threshold OpenEngine rebuilds the knowledge
//     bases with, and the protocol a background rebuild trains with.
//   - A query's RouteOptions.Departure selects the slice exactly once,
//     before the (unchanged, allocation-free) PBR kernel runs; results
//     are stamped with the slice and the slice's epoch. Concatenated
//     recordings (`cat monday.srt tuesday.srt`) load through
//     traj.ReadTrajectoryStream.
//
// # Time-expanded routing
//
// Departure-slice selection alone has a blind spot: a long rush-hour
// trip keeps paying peak costs hours after congestion clears, because
// one slice's model prices the whole trip. RouteOptions.TimeExpanded
// closes it — when a search label is extended along an edge, the cost
// model is re-selected from the slice at departure + the label's
// accumulated mean cost (hybrid.TemporalScratchCoster, implemented by
// the ModelSet façade), so long trips transition from peak to off-peak
// models mid-search. The machinery, layer by layer:
//
//   - internal/hybrid: ModelSet.TimeExpandedCoster returns a
//     per-query hybrid.TemporalScratchCoster — per-extension slice
//     selection layered on the unchanged allocation-free kernel
//     (ExtendElapsedInto is ExtendInto bit for bit at elapsed 0).
//   - internal/routing: labels carry their accumulated mean; dominance
//     frontiers are partitioned by next-extension slice (labels facing
//     different future models never compete); potentials use bounds
//     admissible across every slice reachable within the search
//     horizon; Result.SliceSeq reports the slice sequence of the
//     chosen path. See the internal/routing package doc for the
//     invariants.
//   - Equivalence is proven, not hoped for: TimeExpanded=false — and
//     TimeExpanded=true on a 1-slice engine, or for any trip whose
//     horizon stays inside its departure slice — is bit-identical to
//     the departure-slice path (route, probability, distribution,
//     telemetry), and an accuracy test shows the time-expanded
//     distribution strictly closer to the world's multi-slice path
//     truth (traj.World.PathTruthExpanded) on boundary-crossing trips.
//   - A time-expanded result carries the GLOBAL model epoch rather
//     than one slice's (any reachable slice's model may have shaped
//     it), and Engine.PathDistributionExpanded exposes the same
//     semantics for explicit paths.
//
// # Two-level epochs and per-slice caches
//
// Epochs are two-level: ModelEpoch is the global generation counter —
// it bumps on every swap of anything — and SliceEpoch(s) is the global
// epoch value at which slice s last swapped. Engine.SwapSliceModel —
// the unit internal/ingest publishes through when one slice's drift
// monitor fires — advances only that slice's epoch, so an AM-peak
// rebuild leaves the night model, its epoch and its caches untouched;
// SetLandmarks advances every slice at once (each through the engine's
// one publish point). Every RouteResult is stamped with the epoch that
// answered it: the slice's epoch for
// departure-slice queries, the global epoch for time-expanded ones.
//
// The serving layer (internal/server) leans on exactly that split: it
// keeps one sharded LRU route cache PER SLICE (capacity total/K each),
// each validated against its own slice's epoch, so a peak-slice swap
// invalidates only the peak cache in O(1) while every other slice stays
// warm. Time-expanded answers are never cached — they vary continuously
// with the exact departure and would need global-epoch validation — so
// time_expanded=true requests always measure raw search cost. depart=
// and time_expanded= are accepted on /route, /route/anytime and per
// item on /route/batch; /healthz and /stats report per-slice epochs,
// cache and drift counters.
//
// # Observability
//
// The system is instrumented end to end through internal/obs, a
// dependency-free metrics registry serving the Prometheus text
// exposition on GET /metrics. One registry spans all three layers
// (cmd/serve wires it): the server's per-endpoint request counters and
// latency histograms, the engine's per-query search telemetry —
// expansions, generated labels, the three pruning counters, the
// convolve-vs-estimate split and the arena footprint, folded into
// per-slice histograms via Engine.SetSearchMetrics — and the
// ingestor's drift scores, rebuild durations and swap counters. The
// two-level epochs surface as the model_epoch gauge plus one
// slice_epoch gauge per slice, with swap_total{slice} counting each
// slice's hot swaps, so a dashboard sees exactly which slice swapped
// and when. The instrumentation is allocation-free on the query path:
// counters are single atomic adds on pre-registered series, and
// attaching search metrics adds zero allocations per routed query
// (gated by TestRouteMetricsZeroExtraAllocs and obs's
// TestHotPathZeroAllocs).
//
// Slow-query logging rides the same path: a route request at or over
// the server's slow-query threshold emits one structured log/slog line
// carrying the request's X-Request-ID — accepted from the client or
// minted, always echoed on the response — with the full query identity
// and search counters, so a slow response observed by a client joins
// to the server's view of the same request. internal/server/doc.go
// catalogues the metric names, label conventions and the line's
// schema.
//
// Span-based tracing (obs.Tracer) goes one level deeper: a sampled
// request carries a root span through context.Context, and every layer
// it crosses contributes timed child spans — the server's slice-select
// (with the query itself as attributes), cache-lookup and encode
// phases, the engine's search span (with the per-query counters and
// outcome as attributes), and inside it the PBR kernel's
// potentials/seed-path/expand phases (routing.PBRCtx). Background
// rebuilds are always traced as root "rebuild" with build-kb/train/swap
// children. Finished trees land in a bounded lock-free store —
// obs.SpanStore, which retains slow and error traces preferentially —
// and are served as JSON on GET /debug/traces. W3C traceparent headers
// join client and server hops (a sampled inbound header forces
// tracing; the response echoes the trace identity), and the
// route-latency histograms attach the trace ID as an OpenMetrics
// exemplar, so a latency spike on a dashboard links straight to the
// span tree that explains it. The unsampled path is free: StartSpan on
// a span-free context returns a nil span whose every method is a no-op,
// gated at zero allocations per query by obs's
// TestSpanUnsampledZeroAlloc and bounded under sampling by
// TestRouteSteadyStateAllocs.
//
// # Quick start
//
//	cfg := stochroute.DefaultConfig()
//	cfg.Network.Rows, cfg.Network.Cols = 40, 40
//	engine, err := stochroute.BuildEngine(cfg, os.Stderr)
//	if err != nil { ... }
//	src := engine.NearestVertex(57.01, 9.92)
//	dst := engine.NearestVertex(57.03, 9.95)
//	res, err := engine.Route(src, dst, 600 /* seconds */)
//	fmt.Printf("P(arrive within 10 min) = %.2f over %d edges\n",
//	    res.Prob, len(res.Path))
//
// See README.md for the contributor-facing architecture overview and
// command quickstart, the examples/ directory for runnable programs,
// and cmd/experiments for the paper's evaluation tables.
package stochroute

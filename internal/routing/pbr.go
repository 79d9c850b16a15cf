package routing

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/obs"
)

// Options configures one Probabilistic Budget Routing query.
type Options struct {
	// Budget is the arrival time budget t in seconds; the query
	// maximises P(travel time <= Budget).
	Budget float64

	// Departure is the trip's start time in seconds since local
	// midnight (any finite value; wrapped modulo one day). Engines with
	// a time-sliced cost model select the serving slice from it before
	// the search starts; unless TimeExpanded is set, the search itself
	// never sees time — it runs against whichever Coster the slice
	// selection produced. Zero (the default) is slice 0, the
	// time-homogeneous behaviour.
	Departure float64

	// TimeExpanded switches on elapsed-time-aware slice lookup: when a
	// label is extended along an edge, the cost model is chosen from
	// the slice at departure + the label's accumulated mean cost
	// instead of the departure slice alone, so long trips transition
	// from peak to off-peak models mid-search. The mode engages only
	// when the coster implements hybrid.TemporalScratchCoster (the
	// ModelSet façade does); other costers ignore the flag. With it
	// on, labels whose next extension falls in different slices never
	// compete on a dominance frontier, potentials use a bound
	// admissible across every slice reachable within the search
	// horizon, and Result.SliceSeq reports the slice sequence of the
	// chosen path.
	// False is bit-identical to the departure-slice path, and so is
	// true on a 1-slice model or a trip whose horizon stays inside its
	// departure slice.
	TimeExpanded bool

	// Anytime limits (the paper's anytime extension). Zero means
	// unlimited. MaxExpansions bounds priority-queue pops (the
	// deterministic, machine-independent mode used by benchmarks);
	// MaxDuration bounds wall-clock time.
	MaxExpansions int
	MaxDuration   time.Duration

	// Deadline, when non-zero, bounds the search by an absolute
	// wall-clock instant; the batched query path uses it to give every
	// query of a batch ONE shared deadline regardless of when a worker
	// picks it up. When both Deadline and MaxDuration are set, the
	// earlier bound wins. Like MaxDuration, expiry returns the current
	// pivot with Complete=false.
	Deadline time.Time

	// Ablation switches for the paper's prunings. All false = full
	// algorithm.
	DisablePotentialPruning bool // (a) optimistic remaining cost
	DisablePivotPruning     bool // (b)+(c) pivot path with cost shifting
	DisableDominancePruning bool // (d) stochastic dominance

	// MaxFrontier caps the per-(vertex, incoming edge) Pareto frontier;
	// 0 uses the default of 8.
	MaxFrontier int

	// MaxLabels aborts a pathological search; 0 uses the default of 2M.
	MaxLabels int

	// SeedPath optionally warm-starts the pivot (b) with a known
	// source→dest path, typically the mean-cost route. The search then
	// returns a path at least as good as the seed under the cost model —
	// valuable both for anytime cutoffs (a pivot exists immediately)
	// and because pruning with a learned, non-monotone cost model is
	// heuristic and could otherwise discard the seed's prefix.
	SeedPath []graph.EdgeID

	// SwitchMargin keeps the seed path unless the best found path beats
	// it by more than this much model probability. A learned cost model
	// ranks long paths with noise; switching on a hair-thin modelled
	// advantage trades a reliable known answer for noise. 0 (the pure
	// paper behaviour) switches on any improvement.
	SwitchMargin float64

	// Potentials optionally supplies precomputed admissible potentials
	// (e.g. ALT landmark tables, see BuildALT) in place of the exact
	// backward Dijkstra the search otherwise runs per query — the
	// amortisation that makes OSM-scale graphs affordable. The source
	// must be built over the same graph and an optimistic metric that
	// lower-bounds every cost model the search consults; for
	// time-expanded searches that means a metric no larger than
	// MinEdgeTimeWithin over the whole horizon (the min-across-slices
	// tables the engine builds qualify). nil, the default, computes
	// exact potentials per query — bit-identical to the historical
	// behaviour.
	Potentials PotentialSource
}

// Result is the outcome of a PBR query.
type Result struct {
	// Path is the chosen edge sequence (the pivot path when the search
	// was cut off by an anytime limit). Empty iff Found is false or
	// source == dest.
	Path []graph.EdgeID
	// Dist is the model's travel-time distribution of Path.
	Dist *hist.Hist
	// Prob is P(travel time <= Budget) under Dist.
	Prob float64
	// Found reports whether any source→dest path was discovered.
	Found bool
	// Complete reports whether the search ran to proven optimality
	// (false when an anytime limit returned the pivot early).
	Complete bool

	// Search telemetry.
	Expansions      int
	GeneratedLabels int
	PrunedPotential int
	PrunedPivot     int
	PrunedDominance int
	Runtime         time.Duration

	// Cost-model telemetry: how many extensions the search BUILT while
	// answering this query, by convolution and by the estimator. A
	// child the parent-side prunings rule out is never costed, so it
	// is in a Pruned* counter above and in neither of these. PBR itself
	// cannot observe the cost model's decisions; callers that route
	// through hybrid.Model.WithStats (as Engine does) fill these in.
	NumConvolved int
	NumEstimated int

	// ModelEpoch identifies the model generation that answered the
	// query, for engines that hot-swap models while serving (see
	// Engine.SwapModel). For a time-sliced engine this is the *slice's*
	// epoch — the generation of the per-slice model that actually
	// answered. PBR itself does not know about epochs; the engine
	// stamps it. 0 means "not tracked".
	ModelEpoch uint64

	// Slice is the time-of-day slice whose cost model answered the
	// query (always 0 for time-homogeneous engines). Stamped by the
	// engine, like ModelEpoch. For a time-expanded search this is the
	// departure slice; SliceSeq reports the full traversal.
	Slice int

	// SliceSeq is the per-edge slice sequence of a time-expanded
	// search: SliceSeq[i] is the time-of-day slice whose cost model
	// extended the chosen path onto Path[i] (SliceSeq[0] is the
	// departure slice, which costs the first edge). Nil unless
	// Options.TimeExpanded engaged; len(SliceSeq) == len(Path)
	// otherwise.
	SliceSeq []int

	// ArenaBytes is the retained byte footprint of the pooled search
	// arena this query ran on (hist.Arena.Bytes measured at release) —
	// the per-query memory telemetry behind the search_arena_bytes
	// histogram.
	ArenaBytes int64
}

// label is a partial path in the search.
type label struct {
	vertex   graph.VertexID
	lastEdge graph.EdgeID
	dist     *hist.Hist
	parent   int32 // index into the label arena, -1 for roots
	dead     bool  // removed by dominance

	// Time-expanded state (zero unless Options.TimeExpanded engaged):
	// elapsed is the accumulated mean cost — dist.Mean() at creation —
	// that selects the slice costing this label's NEXT extension, and
	// slice is the time-of-day slice whose model costed lastEdge (the
	// entry the label contributes to Result.SliceSeq).
	elapsed float64
	slice   int32
}

// PBR answers a Probabilistic Budget Routing query: among source→dest
// paths, find one maximising the probability of arriving within
// opts.Budget, using the cost model c (the hybrid model or a baseline).
//
// The search is a label-correcting best-first expansion ordered by the
// optimistic arrival time dist.Min + h(v). The four prunings of the
// paper are applied unless disabled in opts. With an anytime limit set,
// the current pivot path is returned once the limit expires
// (Result.Complete = false).
//
// Every search runs on a pooled workspace that owns its labels, its
// priority heap, its dominance frontiers and, in its hist.Arena, every
// label distribution — labels proven dead recycle their buffers and
// pivot pruning reads shifted CDFs without cloning — so a warmed search
// allocates only what escapes it: the Result, a clone of the pivot's
// distribution and its path at each pivot improvement. A coster that
// implements hybrid.ScratchCoster (the hybrid model and the convolution
// baseline do) extends straight into the arena; one that does not (a
// test double) has the histograms it returns copied in by heapCoster,
// which changes where the floats live and nothing else.
//
// When opts.TimeExpanded is set and c implements
// hybrid.TemporalScratchCoster (the time-sliced ModelSet façade does),
// every extension re-selects its cost model from the departure plus the
// label's accumulated mean cost, dominance frontiers are partitioned by
// the labels' next-extension slice, potentials use a bound admissible
// across every reachable slice, and Result.SliceSeq reports the slice
// sequence of the chosen path. See Options.TimeExpanded for the exact
// equivalence guarantees.
//
// PBR is PBRCtx with an empty context: no span tree, zero tracing cost.
func PBR(g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts Options) (*Result, error) {
	return PBRCtx(context.Background(), g, c, source, dest, opts)
}

// PBRCtx is PBR with trace-context propagation: when ctx carries a
// sampled span (obs.StartSpan), the search emits child spans for its
// phases — "potentials" (the backward Dijkstra bound), "seed-path"
// (warm-start costing, only when opts.SeedPath is set) and "expand"
// (the main label-correcting loop, annotated with the expansion and
// generated-label counts). On an unsampled context every span call is
// a zero-allocation no-op, so this is the function the engine calls
// unconditionally.
func PBRCtx(ctx context.Context, g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts Options) (*Result, error) {
	ws := scratchPool.Get().(*workspace)
	res, err := ws.search(ctx, g, c, source, dest, opts)
	ws.release()
	scratchPool.Put(ws)
	return res, err
}

// search is one PBR query on this workspace, which must be fresh or
// released since its previous search.
func (ws *workspace) search(ctx context.Context, g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Budget <= 0 || math.IsNaN(opts.Budget) {
		return nil, fmt.Errorf("routing: PBR with invalid budget %v", opts.Budget)
	}
	if int(source) < 0 || int(source) >= g.NumVertices() ||
		int(dest) < 0 || int(dest) >= g.NumVertices() {
		return nil, errors.New("routing: PBR with out-of-range endpoint")
	}
	res := &Result{}
	if source == dest {
		res.Found = true
		res.Complete = true
		res.Prob = 1
		res.Dist = hist.Delta(0, c.Width())
		res.Runtime = time.Since(start)
		return res, nil
	}
	maxFrontier := opts.MaxFrontier
	if maxFrontier <= 0 {
		maxFrontier = 8
	}
	maxLabels := opts.MaxLabels
	if maxLabels <= 0 {
		maxLabels = 2_000_000
	}
	// Labels are truncated above this horizon: far enough beyond the
	// budget that the tail shape (which the hybrid estimator's quantile
	// bands condition on) survives, close enough to bound label memory.
	truncateAt := opts.Budget * 1.3

	// Label distributions live in the workspace's arena; a coster that
	// cannot extend into caller-owned storage enters through heapCoster.
	sc, ok := c.(hybrid.ScratchCoster)
	if !ok {
		sc = heapCoster{c}
	}
	// Time-expanded slice lookup (see Options.TimeExpanded): engaged
	// only when requested AND the coster has the temporal capability.
	tc, useTemporal := c.(hybrid.TemporalScratchCoster)
	useTemporal = useTemporal && opts.TimeExpanded
	// hlim bounds every slice lookup of the search: truncation keeps a
	// label's support — and therefore its mean — within one bucket of
	// truncateAt, so clamping lookups to this horizon guarantees the
	// potentials below are admissible for every model the search
	// consults.
	hlim := truncateAt + c.Width()
	clampEl := func(el float64) float64 {
		if el > hlim {
			return hlim
		}
		return el
	}
	sliceAt := func(el float64) int {
		if !useTemporal {
			return 0
		}
		return tc.SliceAtElapsed(clampEl(el))
	}

	// (a) Optimistic potentials by backward Dijkstra over minimum
	// possible edge times — under time-expanded lookup, the minimum
	// across every slice reachable within the search horizon, so the
	// bound stays admissible whichever slice ends up costing an edge.
	minEdge := c.MinEdgeTime
	if useTemporal {
		minEdge = func(e graph.EdgeID) float64 { return tc.MinEdgeTimeWithin(e, hlim) }
	}
	// hAt(v) reads the potential of v. With opts.Potentials set, the
	// bound comes from precomputed tables (one memoised evaluation per
	// visited vertex); otherwise an exact backward Dijkstra runs here,
	// on scratch pooled across queries so the per-query |V| slice and
	// heap are amortised away.
	_, psp := obs.StartSpan(ctx, "potentials")
	var hAt PotentialFunc
	if opts.Potentials != nil {
		fn, release := opts.Potentials.Potentials(dest)
		hAt = fn
		if release != nil {
			defer release()
		}
	} else {
		ps := potentialsPool.Get().(*potentialsScratch)
		if n := g.NumVertices(); cap(ps.h) < n {
			ps.h = make([]float64, n)
		} else {
			ps.h = ps.h[:n]
		}
		reversePotentialsInto(g, minEdge, dest, ps.h, ps.pq)
		hAt = ps.fn
		defer potentialsPool.Put(ps)
	}
	psp.End()
	// Exact potentials prove unreachability up front. Table-backed
	// potentials only lower-bound the distance (a finite bound does not
	// imply a path), so their unreachable case is caught after the loop.
	if math.IsInf(hAt(source), 1) {
		return nil, ErrUnreachable
	}

	scratch := &ws.scratch
	checkedOut := scratch.Arena.Bytes()
	arenaInUse.Add(checkedOut)
	defer func() {
		res.ArenaBytes = scratch.Arena.Bytes()
		arenaInUse.Add(-checkedOut)
	}()
	// extend appends next to a partial path; elapsed — the extended
	// label's accumulated mean cost — selects the slice model under
	// time-expanded lookup and is ignored otherwise.
	extend := func(elapsed float64, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
		if useTemporal {
			return tc.ExtendElapsedInto(scratch, clampEl(elapsed), virtual, lastEdge, next).TruncateAboveInPlace(truncateAt)
		}
		return sc.ExtendInto(scratch, virtual, lastEdge, next).TruncateAboveInPlace(truncateAt)
	}
	// recycle returns a dead label's mass buffer to the arena. Callers
	// must only recycle distributions nothing else references.
	recycle := scratch.Arena.Recycle

	// Pivot: the most promising complete path found so far (b). Its
	// distribution escapes the search (Result.Dist), so it is cloned
	// out of the arena at every improvement.
	havePivot := false
	var pivotPath []graph.EdgeID
	var pivotDist *hist.Hist
	var pivotSlices []int // time-expanded: slice per pivot edge
	pivotProb := -1.0

	// Warm-start the pivot from the seed path, if any. Under
	// time-expanded lookup the seed is costed exactly like a search
	// label chain: each extension's slice comes from the accumulated
	// mean so far.
	if len(opts.SeedPath) > 0 {
		_, ssp := obs.StartSpan(ctx, "seed-path")
		if err := ValidatePath(g, opts.SeedPath, source, dest); err != nil {
			ssp.SetError(err)
			ssp.End()
			return nil, fmt.Errorf("routing: PBR seed path: %w", err)
		}
		var seedSlices []int
		if useTemporal {
			seedSlices = make([]int, len(opts.SeedPath))
			seedSlices[0] = sliceAt(0)
		}
		sd := sc.InitialHistInto(scratch, opts.SeedPath[0])
		for i := 1; i < len(opts.SeedPath); i++ {
			elapsed := 0.0
			if useTemporal {
				elapsed = sd.Mean()
				seedSlices[i] = sliceAt(elapsed)
			}
			nd := extend(elapsed, sd, opts.SeedPath[i-1], opts.SeedPath[i])
			recycle(sd)
			sd = nd
		}
		havePivot = true
		pivotPath = append([]graph.EdgeID(nil), opts.SeedPath...)
		pivotDist = sd.Clone()
		recycle(sd)
		pivotSlices = seedSlices
		pivotProb = pivotDist.CDF(opts.Budget)
		ssp.SetInt("edges", int64(len(opts.SeedPath)))
		ssp.SetFloat("prob", pivotProb)
		ssp.End()
	}
	seedProb, seedDist, seedSliceSeq := pivotProb, pivotDist, pivotSlices

	// push appends a label; costSlice is the slice whose model costed
	// last (the label's Result.SliceSeq entry), elapsed the accumulated
	// mean selecting its next extension's slice — both zero for classic
	// searches — and hv the already-evaluated potential of v.
	push := func(v graph.VertexID, last graph.EdgeID, d *hist.Hist, parent int32, costSlice int32, elapsed, hv float64) {
		ws.labels = append(ws.labels, label{vertex: v, lastEdge: last, dist: d, parent: parent, slice: costSlice, elapsed: elapsed})
		ws.pq.Push(d.Min+hv, int32(len(ws.labels)-1))
		res.GeneratedLabels++
	}

	// Upper bound on the achievable arrival probability of a partial
	// path at v: shift the distribution by the optimistic remaining
	// cost hv = hAt(v) and read the budget CDF — the paper's cost
	// shifting (c), evaluated by CDFShifted without materialising the
	// shifted copy.
	upperBound := func(d *hist.Hist, hv float64) float64 {
		return d.CDFShifted(opts.Budget, hv)
	}

	// Seed with the out-edges of the source: first edges are costed by
	// the departure slice (elapsed 0).
	departSlice := int32(sliceAt(0))
	for _, e := range g.Out(source) {
		to := g.Edge(e).To
		hTo := hAt(to)
		if math.IsInf(hTo, 1) {
			continue
		}
		d := sc.InitialHistInto(scratch, e)
		elapsed := 0.0
		if useTemporal {
			elapsed = d.Mean()
		}
		push(to, e, d, -1, departSlice, elapsed, hTo)
	}

	deadline := time.Time{}
	if opts.MaxDuration > 0 {
		deadline = start.Add(opts.MaxDuration)
	}
	if !opts.Deadline.IsZero() && (deadline.IsZero() || opts.Deadline.Before(deadline)) {
		deadline = opts.Deadline
	}

	_, esp := obs.StartSpan(ctx, "expand")
	for ws.pq.Len() > 0 {
		idx, prio, _ := ws.pq.Pop()
		lb := &ws.labels[idx]
		if lb.dead {
			continue
		}
		// Anytime cutoffs: return the pivot.
		if opts.MaxExpansions > 0 && res.Expansions >= opts.MaxExpansions {
			break
		}
		if !deadline.IsZero() && res.Expansions%64 == 0 && time.Now().After(deadline) {
			break
		}
		res.Expansions++

		// Global stop: expansions are ordered by optimistic arrival, so
		// once that exceeds the budget no remaining label can beat any
		// pivot with positive probability.
		if prio > opts.Budget && havePivot {
			res.Complete = true
			break
		}

		if lb.vertex == dest {
			p := lb.dist.CDF(opts.Budget)
			if p > pivotProb {
				havePivot = true
				pivotProb = p
				// Clone out of the arena: the label may be killed (and
				// its buffer recycled) later, and the pivot outlives
				// the search as Result.Dist.
				pivotDist = lb.dist.Clone()
				pivotPath, pivotSlices = reconstruct(ws.labels, idx, useTemporal)
			}
			// Positive edge times mean re-leaving the destination can
			// never improve the arrival distribution; do not expand.
			continue
		}

		if len(ws.labels) > maxLabels {
			err := fmt.Errorf("routing: PBR exceeded %d labels; raise MaxLabels or tighten the budget", maxLabels)
			esp.SetError(err)
			esp.End()
			return nil, err
		}

		parentVertex := g.Edge(lb.lastEdge).From
		// All extensions of this label are costed by the slice its
		// accumulated mean has reached (the departure slice when the
		// search is not time-expanded).
		expSlice := int32(0)
		if useTemporal {
			expSlice = int32(sliceAt(lb.elapsed))
		}
		for _, next := range g.Out(lb.vertex) {
			ne := g.Edge(next)
			if ne.To == parentVertex {
				continue // immediate U-turn
			}
			hTo := hAt(ne.To)
			if math.IsInf(hTo, 1) {
				continue
			}
			// Parent-side forms of (a) and (b)+(c): every extension over
			// next is, in distribution, at least lb.dist shifted by
			// minEdge(next) (the Coster.MinEdgeTime contract), so a
			// parent that fails either test shifted that far has a child
			// that fails the same test below — decided without building
			// the child.
			if havePivot {
				m := minEdge(next)
				if !opts.DisablePotentialPruning && lb.dist.Min+m+hTo > opts.Budget {
					res.PrunedPotential++
					continue
				}
				if !opts.DisablePivotPruning && upperBound(lb.dist, m+hTo) <= pivotProb {
					res.PrunedPivot++
					continue
				}
			}
			nd := extend(lb.elapsed, lb.dist, lb.lastEdge, next)

			// (a) optimistic-arrival pruning: a label whose best
			// possible arrival misses the budget contributes zero
			// probability; prune once some pivot exists.
			if !opts.DisablePotentialPruning && havePivot && nd.Min+hTo > opts.Budget {
				res.PrunedPotential++
				recycle(nd)
				continue
			}

			ub := upperBound(nd, hTo)

			// (b)+(c) pivot pruning with cost shifting: even with the
			// optimistic remainder the label cannot beat the pivot.
			if !opts.DisablePivotPruning && havePivot && ub <= pivotProb {
				res.PrunedPivot++
				recycle(nd)
				continue
			}

			// The surviving label's accumulated mean decides which
			// slice costs its own extensions — and which frontier it
			// competes on, since dominance must not compare labels
			// facing different future cost models.
			newElapsed := 0.0
			nextSlice := int32(0)
			if useTemporal {
				newElapsed = nd.Mean()
				nextSlice = int32(sliceAt(newElapsed))
			}

			// (d) stochastic-dominance pruning on the per-(vertex,
			// incoming-edge) Pareto frontier. Labels killed here are
			// dead for good — their buffers go back to the arena (the
			// label being expanded, idx, keeps its distribution until
			// its out-edge loop finishes; in practice it can never sit
			// on this frontier, but the guard keeps the invariant
			// explicit).
			if !opts.DisableDominancePruning {
				fs := ws.frontiers.slot(next, nextSlice, maxFrontier)
				entries := ws.frontiers.entries(fs)
				dominated := false
				keep := entries[:0]
				for _, fe := range entries {
					other := &ws.labels[fe.labelIdx]
					if other.dead {
						continue
					}
					// One pass decides both directions.
					otherGE, ndGE := hist.CompareCDF(other.dist, nd)
					if otherGE {
						dominated = true
						keep = append(keep, fe)
						continue
					}
					if ndGE {
						other.dead = true
						if fe.labelIdx != idx {
							recycle(other.dist)
							other.dist = nil
						}
						res.PrunedDominance++
						continue
					}
					keep = append(keep, fe)
				}
				fs.n = int32(len(keep))
				if dominated {
					res.PrunedDominance++
					recycle(nd)
					continue
				}
				if len(keep) >= maxFrontier {
					// Frontier full: keep the strongest by upper bound.
					worst, worstUB := -1, math.Inf(1)
					for i, fe := range keep {
						if fe.ub < worstUB {
							worst, worstUB = i, fe.ub
						}
					}
					if worstUB >= ub {
						res.PrunedDominance++
						recycle(nd)
						continue
					}
					evict := &ws.labels[keep[worst].labelIdx]
					evict.dead = true
					if keep[worst].labelIdx != idx {
						recycle(evict.dist)
						evict.dist = nil
					}
					keep[worst] = keep[len(keep)-1]
					fs.n--
					res.PrunedDominance++
				}
				push(ne.To, next, nd, idx, expSlice, newElapsed, hTo)
				ws.frontiers.push(fs, frontierEntry{labelIdx: int32(len(ws.labels) - 1), ub: ub}, maxFrontier)
			} else {
				push(ne.To, next, nd, idx, expSlice, newElapsed, hTo)
			}
		}
	}
	if esp != nil {
		esp.SetInt("expansions", int64(res.Expansions))
		esp.SetInt("generated_labels", int64(res.GeneratedLabels))
		esp.SetInt("pruned_potential", int64(res.PrunedPotential))
		esp.SetInt("pruned_pivot", int64(res.PrunedPivot))
		esp.SetInt("pruned_dominance", int64(res.PrunedDominance))
		esp.End()
	}
	if ws.pq.Len() == 0 {
		res.Complete = true
	}

	// Decisive-switch rule: fall back to the seed unless the search's
	// best is better by more than the margin.
	if len(opts.SeedPath) > 0 && opts.SwitchMargin > 0 && pivotProb < seedProb+opts.SwitchMargin {
		pivotPath = append([]graph.EdgeID(nil), opts.SeedPath...)
		pivotDist = seedDist
		pivotProb = seedProb
		pivotSlices = seedSliceSeq
	}

	res.Runtime = time.Since(start)
	if !havePivot {
		// A complete search that never reached dest proves dest is not
		// reachable from source: no pruning fires before a pivot exists
		// except dominance, and dominance (including frontier eviction)
		// always keeps a label at the same vertex alive, so a drained
		// queue means the whole reachable component was expanded. Exact
		// potentials catch this case up front; table-backed potentials
		// (Options.Potentials) reach it here, keeping the two modes'
		// observable behaviour identical.
		if res.Complete {
			return nil, ErrUnreachable
		}
		res.Found = false
		return res, nil
	}
	res.Found = true
	res.Prob = pivotProb
	res.Dist = pivotDist
	res.Path = pivotPath
	res.SliceSeq = pivotSlices
	return res, nil
}

// heapCoster gives a Coster without the scratch capability the
// contract the search runs on, by copying each histogram it returns
// into the arena. The copy is exact, so such a coster answers the same
// bits it would if it implemented hybrid.ScratchCoster itself.
type heapCoster struct{ hybrid.Coster }

func (h heapCoster) InitialHistInto(s *hybrid.Scratch, e graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(h.InitialHist(e))
}

func (h heapCoster) ExtendInto(s *hybrid.Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(h.Extend(virtual, lastEdge, next))
}

// reconstruct walks the parent chain of label idx once to count it and
// once to fill the exact-size edge path — and, for a time-expanded
// search, the slice whose model costed each edge — back to front.
func reconstruct(labels []label, idx int32, withSlices bool) (path []graph.EdgeID, sliceSeq []int) {
	n := 0
	for i := idx; i >= 0; i = labels[i].parent {
		n++
	}
	path = make([]graph.EdgeID, n)
	if withSlices {
		sliceSeq = make([]int, n)
	}
	for i := idx; i >= 0; i = labels[i].parent {
		n--
		path[n] = labels[i].lastEdge
		if withSlices {
			sliceSeq[n] = int(labels[i].slice)
		}
	}
	return path, sliceSeq
}

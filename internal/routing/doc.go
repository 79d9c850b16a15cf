// Package routing implements the query algorithms of the paper:
// Probabilistic Budget Routing (PBR) with the paper's four prunings
// and the anytime extension, plus the classical baseline (Dijkstra
// mean-cost routing).
//
// # The label search
//
// PBR is a label-correcting best-first search. A label is a partial
// path: its end vertex, its last edge (the hybrid cost model
// conditions on the incoming edge, so (vertex, lastEdge) — not vertex
// alone — is the search state), its travel-time distribution, and a
// parent link for path reconstruction. Labels are stored in one
// append-only slice and referenced by index; the priority queue orders
// expansion by optimistic arrival time dist.Min + h(v). Labels, their
// distributions, queue and dominance frontiers belong to a pooled
// per-search workspace (workspace.go), so the loop itself allocates
// nothing once the workspace has grown to the search's size. There is
// one search path, on hybrid.Coster: every extension is written straight
// into the workspace's arena.
//
// The kernel relies on the following invariants; anything touching
// pbr.go must preserve them:
//
//   - Label distributions are immutable once pushed. The search may
//     read them (CDF, dominance comparisons, cost shifting) any number
//     of times, but only the extension step creates new distributions.
//     The floats live in the workspace's hist.Arena; a label's buffer
//     is recycled ONLY when the label is provably dead (killed by
//     dominance, evicted from a full frontier, or pruned before ever
//     being pushed) and nothing else references it. The pivot label
//     can die too, so each pivot improvement copies its masses into a
//     buffer the workspace owns; Result.Dist is cloned from that copy
//     once, when the search returns.
//   - Labels are truncated above the horizon budget*1.3. Truncation
//     aggregates tail mass at the first support point above the
//     horizon; it preserves CDF(v) for every v <= horizon, so the
//     objective P(arrival <= budget) is computed exactly while label
//     memory stays bounded.
//   - Potentials h come from a backward Dijkstra over per-edge lower
//     bounds and must be admissible: h(v) never exceeds the smallest
//     cost any extension chain from v to dest can accumulate under
//     the models the search will actually consult. Potential pruning
//     (a) discards labels with dist.Min + h(v) > budget once a pivot
//     exists; pivot pruning (b)+(c) discards labels whose optimistic
//     on-time probability CDFShifted(budget, h(v)) cannot beat the
//     pivot. Both are exact for convolution models; with a learned,
//     non-monotone estimator they are heuristic (the estimate of an
//     extension can fall below the bound), which is why Options
//     supports SeedPath warm starts and ablation switches.
//   - Both tests run twice per out-edge e = (v, w) of the label being
//     expanded: first on the parent, shifted by m = MinEdgeTime(e) —
//     parent.Min + m + h(w) > budget, then
//     parent.CDFShifted(budget, m + h(w)) <= pivot — and again on the
//     child as above. The parent-side forms are implied, not new
//     rules: every extension over e is, in distribution, no earlier
//     than its parent shifted by m (a convolution's support starts at
//     parent.Min + m, the estimator's conditionals are offsets >= 0
//     from it, truncation keeps the prefix below the horizon exact,
//     and the bucket cap collapses a child's tail only where its
//     equally capped parent, shifted, has already reached 1 — every
//     label has been through the cap except a first edge's marginal,
//     which is far narrower than any cap in use;
//     TestExtensionIsAtLeastParentShifted states it, up to 1e-9 of
//     renormalisation and rounding), so a child whose parent fails
//     shifted by m fails the same test itself. extend runs only for
//     children both parent-side tests let through; the labels pushed,
//     their order and every counter are those of a search that built
//     every child first (testdata/pbr_golden.txt), while the
//     extensions built are fewer (testdata/pbr_work_golden.txt).
//   - Dominance pruning (d) maintains a Pareto frontier per (vertex,
//     lastEdge): a new label is dropped if an existing one
//     first-order stochastically dominates it, and kills existing
//     labels it dominates. Dominance comparisons are only sound
//     between labels whose FUTURE extensions are priced identically —
//     see the time-expanded rules below. Frontiers are capped at 8
//     entries (weakest upper bound evicted), which bounds
//     memory but is another source of heuristic incompleteness. Until
//     some entry dominates the new label, one hist.CompareCDF pass per
//     frontier pair decides both directions. After that only a kill is
//     left to decide, so the rest of the loop asks the label's one-sided
//     DominatesOrEqual first — it usually fails within a few grid
//     points — and the entry's only when that holds (frontierVerdict).
//     The loop never stops at the first dominator: a dominated label
//     can still kill a later entry.
//   - Expansion order is deterministic: priorities, tie-breaking and
//     frontier contents depend only on the inputs, never on wall
//     clock or storage layout. A frontier keeps its entries in
//     arrival order — compacted in place, appended at the end, the
//     evicted entry replaced by the last — wherever the store puts
//     them; the table is keyed lookup only. This is what makes the
//     frozen goldens (testdata/pbr_golden.txt) and the bit-identical
//     equivalence tests meaningful.
//
// # Time-expanded search
//
// With Options.TimeExpanded set and a coster implementing
// hybrid.TemporalScratchCoster, the cost model may change mid-search:
// an extension is priced by the slice at departure + the label's
// accumulated mean cost (label.elapsed, the mean of its distribution
// at creation). The classic invariants gain three time-expanded
// clauses:
//
//   - Slice lookups are clamped to the horizon budget*1.3 + width, so
//     the set of slices the search can consult is known up front;
//     potentials use min-over-reachable-slices bounds
//     (TemporalScratchCoster.MinEdgeTimeWithin) and therefore remain
//     admissible across every model an extension can be priced by;
//     the parent-side tests shift by the same bound.
//   - Dominance frontiers are additionally keyed by the labels'
//     next-extension slice: stochastic dominance at equal state says
//     nothing about labels whose remaining trip will be priced by
//     different models, so cross-slice labels never compete. (A
//     dominating label reaches the slice boundary no later in
//     distribution, but crossing earlier is not always cheaper —
//     off-peak may be ahead.) Within one slice, dominance keeps the
//     classic heuristic status.
//   - Each label records the slice that priced its last edge;
//     reconstructing the pivot yields Result.SliceSeq, the per-edge
//     slice sequence of the answer.
//
// When every lookup lands in the departure slice — K = 1, or a trip
// whose whole horizon fits inside its slice — all three clauses
// degenerate to the classic search, bit for bit; equivalence tests at
// the engine layer enforce exactly that.
//
// # ALT landmark potentials
//
// The potentials h above are exact by default: a full backward Dijkstra
// from the destination under the optimistic edge weights, paid once per
// query. On a metropolitan-scale graph that sweep costs more than the
// search it is meant to prune, so PBR accepts precomputed potentials
// through Options.Potentials (the PotentialSource contract); the
// built-in implementation is ALT (A*, Landmarks, Triangle inequality —
// Goldberg & Harrelson, SODA'05):
//
//   - SelectLandmarks picks L landmarks by deterministic farthest-point
//     traversal over vertex coordinates (candidates typically one per
//     spatial-grid cell), pushing them to the periphery where the
//     bounds are tightest.
//   - BuildALT runs 2L Dijkstras — forward from and backward to each
//     landmark ℓ — and stores dist(ℓ→v) and dist(v→ℓ) for every vertex
//     in flat transposed tables. This is preprocessing: once per model
//     generation, never per query. The weight function is materialised
//     first — read once per edge into an array, a negative or NaN weight
//     rejected there — so a relaxation is an array read, not a call into
//     the cost model. The 2L sweeps are then independent jobs handed to
//     internal/par: each fills scratch of its own and writes one column
//     of one table, so the tables are the same bits on one core or many.
//   - The tables hold float32: 2·L·V·4 B, half of float64's. A sweep
//     rounds each distance to the nearest float32 and records the
//     largest rounding error of its finite entries; the table's slack is
//     the largest over its sweeps, and a potential is the bound below
//     less 2·slack, clamped at zero — each term of the bound reads two
//     rounded entries. Rounding every entry down, the obvious
//     alternative, is not admissible: the destination's entry is the
//     subtrahend, which would have to round up. Every minimum time of a
//     knowledge base lies on its Width grid, so on the metrics the engine
//     builds on every distance is an integer below 2²⁴, slack is 0 and
//     the potentials have the bits float64 tables gave
//     (TestALTFloat32MatchesFloat64). A finite distance above
//     math.MaxFloat32 fails the build with an error rather than turn
//     into a +Inf that would read as unreachable.
//   - ALTSet is one model set's tables: one per slice model and one on
//     the min-across-slices metric, built over landmarks NewALTSet
//     selects from a 500 m grid's cell representatives. Each metric is
//     read into a vector once; metrics equal bit for bit
//     (math.Float64bits) share one table, which is exact because a table
//     depends only on its metric and landmarks and never changes. On the
//     metro fixture slices 0–2 have one metric and slice 3 the min's, so
//     five tables are two. Rebuild serves a swap: a slice whose model is
//     unchanged keeps its table, and every other metric is compared with
//     the kept ones and those built before it. The engine and cmd/train's
//     -landmarks dry run both go through ALTSet, so what the dry run
//     reports is what serving holds.
//   - A query's potential is the triangle-inequality bound
//     max(dist(v→ℓ) − dist(t→ℓ), dist(ℓ→t) − dist(ℓ→v)) maximised over
//     landmarks and clamped at zero, memoised per vertex. Every path
//     v→t costs at least dist(v→ℓ) − dist(t→ℓ) under the metric the
//     tables were built on, so the bound is admissible whenever that
//     metric lower-bounds every model the search consults — for
//     time-expanded searches the tables are built on the
//     pointwise-min-across-slices metric, which lower-bounds
//     MinEdgeTimeWithin for every horizon.
//
// ALT bounds are weaker than exact potentials (more labels survive
// pruning (a)), but the search result is identical — potentials only
// order and prune, they never price — so routes, probabilities and
// distributions stay bit-identical while the per-query |V|-heap sweep
// disappears. One subtlety: exact potentials prove unreachability up
// front (h(source) = +Inf); an ALT bound may not, in which case the
// search itself proves it by draining a complete queue without ever
// producing a pivot. Both paths return ErrUnreachable.
package routing

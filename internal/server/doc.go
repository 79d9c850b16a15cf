// Package server turns a stochroute engine into a concurrent routing
// service: an HTTP/JSON API answering Probabilistic Budget Routing
// queries (Pedersen, Yang, Jensen; ICDE 2020) from many clients at
// once over one shared graph and hybrid model, with an optional write
// path (POST /ingest) that keeps the model learning while it serves.
//
// # API
//
// Every endpoint is mounted on the HTTP chassis the fleet gateway
// shares (internal/httpsvc), whose package documentation is the one
// statement of the per-request protocol: method check, X-Request-ID,
// X-Replica (Config.ReplicaID), trace sampling, request accounting and
// the {"error": "..."} failure shape (an unexpected handler error is a
// 500 here). Query endpoints are GET and accept either vertex IDs
// (source=, dest=) or WGS84 coordinates (from=lat,lon, to=lat,lon)
// snapped to the nearest vertex.
//
// Temporal routing: the backend's cost model is partitioned into K
// time-of-day slices (K = 1 for a classic time-homogeneous model).
// /route, /route/anytime, /route/batch, /sample and /pairsum accept an
// optional depart parameter — seconds since local midnight, default 0
// — that selects the slice serving the request; responses echo
// depart_s and slice, and model_epoch is the *slice's* serving
// generation.
//
// Time-EXPANDED routing goes one step further: with
// time_expanded=true (/route, /route/anytime) or "time_expanded":
// true per batch item, the cost model is re-selected per edge from
// departure + the trip's accumulated mean cost, so a long trip
// departing in the rush hour stops paying peak costs once it crosses
// into the off-peak slice. Time-expanded responses echo
// time_expanded, report slice_seq — the per-edge slice sequence of
// the returned path — and carry the GLOBAL model epoch (any slice's
// model may have shaped the answer). On a 1-slice backend the mode is
// bit-identical to a classic request.
//
//   - /route?source=&dest=&budget=[&depart=][&time_expanded=] — full
//     budget-routing search: the path maximising P(arrival within
//     budget seconds) departing at depart. Responses carry
//     model_epoch, the generation that answered, and the search's
//     telemetry; convolved and estimated count the extensions the
//     search BUILT — a child the parent-side prunings rule out is
//     never costed, so it is in neither.
//   - /route/anytime?...&limit_ms= — the anytime variant: the best
//     pivot path found within the wall-clock limit.
//   - /route/batch (POST, up to Config.MaxBatch queries) — the batched
//     query path: {"queries": [{"source": 3, "dest": 9, "budget_s":
//     420, "depart_s": 28800, "time_expanded": true}, ...]} (depart_s
//     and time_expanded optional per query, so one batch can mix
//     peak, off-peak and time-expanded items). The whole batch is
//     validated up front — a malformed query fails the request with a
//     400 naming its index AND field, e.g. "queries[3].depart_s" —
//     then answered against ONE model snapshot on par.For's pool of
//     Config.BatchWorkers workers and returned as {"results": [...],
//     "cache_hits": n, "runtime_ms": t} with results[i] answering
//     queries[i] in the same shape as /route (plus a per-item "error"
//     for queries that individually failed, e.g. an exhausted label
//     budget or a panic in that item's search). Each classic item first consults the shared route cache
//     under the same epoch-validated key /route uses, so hot batches
//     are answered without searching and batch-warmed entries serve
//     later /route calls; time-expanded items always search.
//   - /pairsum?first=&second= — the hybrid model's travel-time
//     distribution for one adjacent edge pair, computed per request
//     (one initial histogram, one extension).
//   - /sample?n=&lo_km=&hi_km=&seed= — routing queries drawn from the
//     workload generator, each with budget_s: its default deadline at
//     the request's depart, the 0.8-quantile of Backend.QuantileBudget
//     (the input cmd/loadgen replays). An unreachable pair is skipped.
//   - /ingest (POST, enabled by Config.Ingestor) — the write path:
//     {"trajectories": [{"edges": [...], "times": [...], "depart":
//     28920}, ...]} (depart optional, default 0). Trajectories are
//     validated against the graph (invalid ones are counted and
//     skipped, never fatal) and folded into the ingestion subsystem's
//     per-slice aggregates (internal/ingest); the acknowledgement
//     reports the accepted/rejected split and the current model epoch.
//     Stream a recorded SRT2 file through this endpoint with
//     cmd/replay.
//   - /healthz — liveness, graph size, the global model epoch, the
//     slice count, every slice's serving epoch, uptime, and a degraded
//     flag: true while any slice's drift monitor has fired without a
//     rebuild swapping that slice since — the server still answers,
//     but knowingly on a stale model.
//   - /stats — request counts, cache effectiveness (aggregate plus
//     per-slice breakdowns including epoch invalidations), in-flight
//     gauge, global and per-slice model epochs, and — when
//     ingestion is enabled — the write path's counters: accepted/rejected,
//     aggregate size, drift events, last drift score, rebuilds and
//     the last-swap timestamp, each also broken down per slice (so a
//     peak-hour drift event is attributable to its slice). Also
//     arena_bytes_inuse, the retained footprint of search arenas
//     checked out by in-flight queries.
//   - /metrics — the Prometheus text exposition (see Observability
//     below); disable with Config.DisableMetrics.
//
// JSON request bodies are hardened: they are read through
// http.MaxBytesReader (Config.MaxIngestBytes for /ingest, a fixed 1 MiB
// for /route/batch; 413 past the cap, wherever the value ends) and
// unknown fields and trailing data are rejected, so an oversized or
// malformed payload can neither balloon memory nor be silently
// half-parsed.
//
// # Concurrency and the cost kernel
//
// The whole query path is read-only: the hybrid model's estimator runs
// the network's pure inference pass, and decision telemetry is kept in
// per-request structs (hybrid.QueryStats) that the engine records once
// per answered query — the model itself is never written — so one
// engine serves any number of concurrent requests with no locking and
// identical answers to serial execution. (Earlier versions
// required serialising Route calls or cloning models per goroutine;
// that caveat is gone.)
//
// Under the handlers, every search runs on the allocation-free cost
// kernel: the model implements hybrid.Coster, whose one form of an
// extension writes into caller-owned storage, so PBR keeps its label
// histograms in a pooled per-search arena instead of allocating per
// extension; /pairsum costs
// its pair on a pooled scratch too. /route/batch additionally amortises
// snapshot loading and scheduling across its items via
// Engine.RouteBatch, whose single-snapshot guarantee is what makes
// per-item cache tagging sound under concurrent hot swaps.
//
// # Caching and model hot swaps
//
// Sharded LRU route caches (ShardedLRU), one instance per time-of-day
// slice, absorb hot traffic — keying the caches on slice means peak and
// off-peak answers never collide, and each slice's cache validates
// against its own serving generation. Route results are keyed on
// (source, dest, budget bucket) within their slice's cache, where the
// budget is quantised to Config.BudgetBucketSeconds. Only complete,
// found searches are stored — the entry holds the path and its full
// travel-time distribution, and every hit recomputes the exact on-time
// probability for the request's budget from that distribution, so
// bucketing only ever coarsens which search ran, never the reported
// probability.
//
// Every cache is epoch-validated: entries are tagged with the slice
// epoch that computed them, the slice cache's validity epoch advances
// to that slice's serving epoch on every request, and Get serves an
// entry only when its tag equals the current epoch. When the ingestion
// subsystem hot-swaps one slice's rebuilt model, the epoch bump
// invalidates every pre-swap entry of THAT slice in O(1) — stale route
// results never survive a swap — while the other slices' caches stay
// warm; stale entries are reclaimed lazily on first touch or by
// ordinary LRU eviction. Shards are independently locked and selected
// by key hash, keeping cache contention negligible next to search
// cost. X-Cache: hit|miss response headers expose per-request cache
// outcomes to load tools (cmd/loadgen's -departs sweep reports per-
// slice hit rates and latency percentiles; -expand load-tests the
// uncached time-expanded path).
//
// Time-expanded requests bypass the caches entirely, in both
// directions. Two reasons, both structural: a time-expanded answer
// varies continuously with the exact departure (the point where the
// trip crosses a slice boundary moves with it), so the slice-keyed,
// budget-bucketed cache key would conflate genuinely different
// answers; and its validity depends on EVERY slice the search could
// reach, so an entry could only be checked against the global epoch —
// at which point one swap anywhere would flush it anyway. Until a
// departure-bucketed design earns its complexity (see ROADMAP), the
// honest behaviour is cached=false and a fresh search per request.
//
// # Observability
//
// GET /metrics serves the Prometheus text exposition (format 0.0.4)
// from an internal/obs registry — the server's own when Config.Metrics
// is nil, or a shared one so the engine's search telemetry and the
// ingestor's drift/swap series land in the same scrape (cmd/serve
// wires all three). /stats reads the SAME atomics, so the two views
// can never disagree at rest. The per-request instrumentation is
// allocation-free: every series is pre-registered at construction and
// the hot path is atomic adds plus an array index — no maps, no label
// rendering.
//
// Label conventions: endpoint is the mux pattern ("/route",
// "/route/batch", ...); slice is the time-of-day slice index as a
// decimal string; cache is "hit"|"miss" on route_latency_seconds and
// the cache family ("route", the only one) on cache_* series;
// time_expanded is "true"|"false". Each bullet of the catalogue names
// its families before the dash, and TestMetricCataloguesMatchRegistries
// (package stochroute) holds the list to what cmd/serve's wiring
// registers. Metric catalogue:
//
//   - http_requests_total, http_request_errors_total,
//     http_request_duration_seconds {endpoint} — every endpoint,
//     /metrics itself included.
//   - route_latency_seconds {slice, cache, time_expanded} — the
//     route-serving latency the way a dashboard slices it; every batch
//     item contributes its own observation (its wall-clock search time,
//     or the hit-path time for cached items) under the batch request's
//     scope, so batch and single-query latency share one histogram.
//   - cache_hits_total, cache_misses_total, cache_evictions_total,
//     cache_invalidations_total, cache_entries {cache, slice} — the
//     per-slice LRU caches; invalidations count the hot-swap
//     footprint.
//   - model_epoch, slice_epoch {slice}, swap_total {slice} — the
//     two-level epochs and each slice's hot swaps (the ingestor's
//     series), so swap N is visible as swap_total moving with
//     slice_epoch in lockstep.
//   - search_expansions, search_generated_labels,
//     search_pruned_potential, search_pruned_pivot,
//     search_pruned_dominance, search_convolved, search_estimated,
//     search_arena_bytes {slice}, search_time_expanded_total — the
//     engine's per-query search telemetry (Engine.SetSearchMetrics):
//     per-slice histograms and a counter of time-expanded queries.
//     search_convolved and search_estimated are extensions built per
//     query: the pruned_* histograms include children ruled out from
//     the parent label alone, which were never costed and are in
//     neither. Their _sum series are the decision totals: the sum of
//     the per-answer convolved / estimated fields over every routing
//     query answered (/route, /route/anytime and /route/batch items,
//     cache misses only), exact across model swaps; /pairsum and
//     background retraining are not routing queries and do not count.
//   - ingest_accepted_total, ingest_rejected_total,
//     ingest_seeded_total, ingest_folded_total {slice},
//     ingest_drift_score {slice}, ingest_drift_events_total {slice},
//     ingest_rebuild_seconds {slice}, ingest_rebuild_errors_total,
//     ingest_aggregate_prunes_total — the write path, registered by
//     the ingestor; its /stats block reads these same series.
//   - uptime_seconds, inflight_requests, degraded, arena_bytes_inuse
//     — scrape-time gauges; degraded mirrors /healthz.
//   - go_goroutines, go_heap_inuse_bytes, go_gomaxprocs,
//     go_gc_pause_seconds_total, go_gc_cycles_total — the Go runtime
//     sampler, which /stats's runtime block reads too.
//
// Slow-query logging: a /route or /route/anytime request that takes
// Config.SlowQueryThreshold or longer emits one structured slog line
// (msg "slow_query", level WARN) to Config.TraceLogger with the attrs
// request_id, endpoint, src, dst, budget_s, depart_s, slice, epoch,
// time_expanded, cache_hit, found, complete, prob, expansions,
// generated_labels, pruned_potential, pruned_pivot, pruned_dominance,
// convolved, estimated, arena_bytes, latency_ms — enough to
// reconstruct why THIS request was slow (cache miss? pruning collapse?
// giant arena?) without reproducing it. There is no second sampler:
// the 1-in-N view of ordinary requests is the span tracer's, below,
// whose spans carry the same query identity and counters.
//
// # Span tracing and /debug/traces
//
// When Config.Tracer is set, the chassis samples requests into span
// trees (1-in-N plus every sampled inbound traceparent; see
// internal/httpsvc) and puts the root span, named after the endpoint
// pattern, in the request context. Every layer below contributes
// children via obs.StartSpan — a zero-allocation no-op for the
// unsampled majority, so the hot path is identical with and without a
// tracer.
//
// Span taxonomy (name — parent — attributes):
//
//   - "/route" etc. — root — the endpoint pattern; error status from
//     the handler's error return.
//   - "slice-select" — root — source, dest, budget_s, depart_s (the
//     query as parsed), slice, epoch, time_expanded: departure → slice
//     mapping and epoch advance.
//   - "cache-lookup" — root — hit; bypass=true when time-expanded
//     skipped the cache.
//   - "search" — root (from Engine.RouteCtx) — slice, epoch,
//     time_expanded, expansions, generated_labels, convolved,
//     estimated, arena_bytes, found, complete, prob.
//   - "potentials", "seed-path", "expand" — search (from
//     routing.PBRCtx) — the kernel phases; expand carries the pruning
//     counters.
//   - "encode" — root — JSON rendering of the response.
//   - "batch-item" — root — index, source, dest (+cached=true for
//     hits, spanned by the server; misses are spanned by the engine's
//     batch executor and own a child search span). Each item also
//     contributes its own route_latency_seconds observation.
//   - "ingest-validate", "ingest-fold", "drift-score" — /ingest root —
//     the write path's phases (internal/ingest).
//   - "rebuild" — always-sampled background root — slice, reason,
//     trajectories; children "build-kb", "train", "swap" (epoch). Find
//     them with /debug/traces?endpoint=rebuild.
//
// GET /debug/traces is the chassis's (filters and response shape:
// httpsvc.TracesResponse); the store keeps slow (over its threshold)
// and error traces in a separate annex so they survive the main ring
// cycling. Exemplars close the metrics↔traces
// loop: scraping /metrics with Accept: application/openmetrics-text
// renders route_latency_seconds buckets annotated with
// `# {trace_id="..."}`, and that ID resolves via
// /debug/traces?trace_id=... — from histogram spike to span tree in
// two requests. The default exposition is byte-identical to the plain
// 0.0.4 format, exemplar-free.
package server

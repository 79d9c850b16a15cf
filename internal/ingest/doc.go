// Package ingest is the write path of the routing service: a streaming
// trajectory-ingestion subsystem that keeps the hybrid model (Pedersen,
// Yang, Jensen; ICDE 2020) learning while the engine serves queries.
//
// The paper trains its model offline from map-matched GPS trajectories,
// but real road networks drift — travel-time distributions shift with
// traffic — so a production deployment must fold live trajectories back
// into the model without stopping the read path. The subsystem has
// three cooperating parts:
//
//   - Ingestor accepts trajectory batches (via the Go API or the
//     server's POST /ingest endpoint), validates them against the road
//     graph, and appends each to its departure slice's pending batch —
//     all it does under the lock. A slice's aggregate is what the paper
//     builds its model from, edge and edge-pair travel-time counts (the
//     traj.ObservationStore the engine serves), plus a seeded uniform
//     sample of hybrid.Config.PrefixRows trajectories for the
//     estimator's prefix phase, and the pending batch.
//
//   - One DriftMonitor per time-of-day slice keeps a window of that
//     slice's accepted trajectories; a full window is collected into an
//     observation store, and its per-edge histograms are compared, in
//     edge order, against the slice's serving marginals with the
//     Jensen–Shannon divergence (internal/hist). When enough edges
//     drift past the configured threshold — or unconditionally every
//     DriftConfig.RebuildEvery accepted trajectories in that slice — a
//     rebuild of that slice triggers, so a rush-hour regime change
//     fires exactly the rush-hour monitor.
//
//   - A trigger hands the pending batch to a background rebuild (at
//     most one in flight per slice). It folds only that batch onto a
//     copy of the slice's counts, off the lock, and publishes the result
//     as the slice's aggregate even if training then fails. From that
//     one object it re-derives the slice's knowledge base, retrains the
//     estimation network (the prefix phase walks the sample) and the
//     convolve-vs-estimate classifier, and publishes model and store
//     through Target.SwapSliceModel — the engine's epoch-tagged atomic
//     hot swap, advancing only that slice's epoch: queries in flight
//     finish on the old generation, the serving layer's per-slice result
//     cache invalidates, and the other slices keep their generation.
//     Config.MaxTrajectories ages counts out without subtracting any.
//
// A failed rebuild (for example, too few pairs with support yet) is
// counted and logged but never disturbs the serving model. Use
// cmd/replay to stream a recorded SRT2 trajectory file through
// POST /ingest at a configurable rate and exercise the whole pipeline;
// Status reports every counter both in aggregate and per slice: the
// per-slice table is the subsystem's state, the aggregates are its
// sums and maxima. Each counter is kept once, as a series the ingestor
// registers in Config.Metrics: /metrics renders it and Status reads it.
package ingest

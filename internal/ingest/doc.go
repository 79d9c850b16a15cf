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
//     graph, and folds each into its departure slice's incremental
//     observation aggregate — append-only traj.ObservationStore merges
//     inside a traj.SlicedObservations, never a rebuild from scratch.
//     Ingestion is cheap and synchronous; everything expensive happens
//     in the background.
//
//   - One DriftMonitor per time-of-day slice watches a sliding window
//     of that slice's fresh observations and compares per-edge
//     empirical travel-time histograms against the slice's serving
//     marginals with the Jensen–Shannon divergence (internal/hist).
//     When enough edges drift past the configured threshold — or
//     unconditionally every DriftConfig.RebuildEvery accepted
//     trajectories in that slice — a rebuild of that slice triggers.
//     A rush-hour regime change therefore fires exactly the rush-hour
//     monitor; the night slice never notices.
//
//   - The rebuild runs in a background goroutine (at most one in
//     flight per slice; different slices may rebuild concurrently)
//     over a point-in-time snapshot of the slice's aggregate
//     (ingestion continues concurrently): it re-derives the slice's
//     knowledge-base histograms, retrains the estimation network and
//     the convolve-vs-estimate classifier, and publishes the result
//     through Target.SwapSliceModel — the engine's epoch-tagged atomic
//     hot swap, advancing only that slice's epoch. Queries in flight
//     finish on the old generation; new queries in that slice see the
//     new epoch, the serving layer's per-slice result cache
//     invalidates on the bump, and the other slices keep serving their
//     generation with warm caches.
//
// A failed rebuild (for example, too few pairs with support yet) is
// counted and logged but never disturbs the serving model. Use
// cmd/replay to stream a recorded SRT2 trajectory file through
// POST /ingest at a configurable rate and exercise the whole pipeline;
// Status reports every counter both in aggregate and per slice.
package ingest

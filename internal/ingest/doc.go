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
//     graph, and appends each to its departure slice's aggregate. The
//     aggregate is the trajectories themselves — the paper's one input
//     — and nothing derived from them is kept beside it: ingestion is
//     a validation pass and a slice append under the lock, and
//     everything expensive happens in the background.
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
//     over an O(1) view of the slice's aggregate as of the trigger
//     (ingestion and age-out continue concurrently and never reach
//     into it): it collects the slice's traj.ObservationStore from
//     that view — one Collect per rebuild, about 8 µs per trajectory,
//     bounded by Config.MaxTrajectories — re-derives the slice's
//     knowledge-base histograms, retrains the estimation network and
//     the convolve-vs-estimate classifier, and publishes model and
//     store through Target.SwapSliceModel — the engine's epoch-tagged
//     atomic hot swap, advancing only that slice's epoch. Queries in flight
//     finish on the old generation; new queries in that slice see the
//     new epoch, the serving layer's per-slice result cache
//     invalidates on the bump, and the other slices keep serving their
//     generation with warm caches.
//
// A failed rebuild (for example, too few pairs with support yet) is
// counted and logged but never disturbs the serving model. Use
// cmd/replay to stream a recorded SRT2 trajectory file through
// POST /ingest at a configurable rate and exercise the whole pipeline;
// Status reports every counter both in aggregate and per slice: the
// per-slice table is the subsystem's state, the aggregates are its
// sums and maxima.
package ingest

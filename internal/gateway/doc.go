// Package gateway is the replica-fleet coordinator: one HTTP front
// door over N identical serving replicas (cmd/serve processes built
// from the same model set), combining consistent-hash query routing,
// health-aware failover, ingest fan-out and scatter/gather batching.
//
// # Routing
//
// Query endpoints (/route, /route/anytime, /pairsum, /sample) are
// routed on a consistent-hash ring keyed by the request's (source,
// dest) identity, so every repetition of a query lands on the same
// replica and that replica's epoch-validated route cache stays hot for
// its key range. The ring is immutable — virtual nodes hash
// replica IDs, not addresses — and health enters as a lookup predicate:
// a down replica's points are skipped (its range spreads across the
// survivors vnode by vnode) and consulted again the moment it
// recovers, which reclaims exactly its old range with zero movement of
// anyone else's keys.
//
// # Health
//
// Each replica is tracked in three states. Healthy and degraded (the
// replica's own /healthz reports drift with no model swap yet) are
// both routable; down is not. Detection is two-path: an active prober
// polls every replica's /healthz on a fixed interval and marks a
// replica down after DownAfter consecutive failures, while the request
// path marks a replica down immediately on a transport-level dispatch
// failure and retries the request on the next live owner — in-flight
// load fails over without waiting for a probe tick. Client-caused
// failures (a canceled request context) and per-dispatch timeouts are
// excluded from the passive detector: a disconnecting client or one
// slow query is not evidence a replica is dead, and acting on it
// would let a single canceled context cascade down marks across the
// fleet. A replica answering under the wrong identity (mis-wired
// fleet config) is held degraded with the reported identity surfaced
// in /healthz.
//
// # Ingest
//
// POST /ingest fans out to every replica so each drift monitor sees
// the full trajectory stream. The handler only enqueues the raw body
// into per-replica queues bounded both in batches (IngestQueue) and
// in bytes (IngestQueueBytes — the per-replica memory budget while a
// replica is down); per-replica workers deliver in order with
// capped-exponential-backoff retry. One slow or briefly down replica
// never stalls ingestion — it catches up from its queue — and a full
// queue drops batches for that replica alone.
//
// # Batching
//
// POST /route/batch is scatter/gather: items split by hash owner,
// sub-batches dispatch concurrently (par.For, one worker per owner),
// and one pass in owner order gathers them. Per-item results reassemble
// at their original positions with the owning replica injected as a
// "replica" field — every byte the replica computed is preserved, so a
// gateway batch answer is bit-identical to the same batch against a
// single replica. A failure other than transport is the lowest owner's.
//
// Nothing on the way is decoded into values. One walk over the client's
// body, after json.Valid, yields each item's span (a sub-slice of the
// body) and its (source, dest), with encoding/json's rules for the
// shape (FuzzScanBatchRequest holds the walk to them). A sub-batch is
// {"queries":[…]} around its items' spans joined by commas, so an
// item's bytes, whitespace included, reach the replica as the client
// sent them. A replica's answer is read into one buffer, checked with
// json.Valid (data after its JSON value is a transport-level decode
// failure) and split into result spans, whose count must match the
// sub-batch's. The client's answer is those spans, each with
// "replica":"<id>" spliced in after its opening brace, then the summed
// cache_hits and the gateway's runtime_ms, appended into a pooled
// buffer. A sub-batch carries the client's identity headers
// (X-Request-ID, Accept, traceparent), as a proxied GET does, under its
// own Content-Type.
//
// # Transport
//
// Everything the gateway sends to its fleet — proxied queries,
// sub-batches, ingest deliveries, health probes — goes through one
// http.Transport the gateway owns (newTransport), by RoundTrip rather
// than through net/http's client type: a replica never redirects and
// the gateway keeps no cookies, so the client layer added only
// per-request bookkeeping. The pool parks up to 64 keep-alive connections per
// replica (http.DefaultTransport's 2 made a fleet under three
// concurrent requests per replica re-dial continuously), shares
// nothing with other HTTP users in the process, looks up no proxy and
// does not advertise gzip, which no replica sends. Time limits are
// context deadlines, set per request: RequestTimeout spans a dispatch
// from dial to the last relayed body byte, ProbeTimeout one probe.
// When the context given to Start ends, the parked connections are
// closed.
//
// A proxied GET and a sub-batch are derived, not rebuilt: the
// replica's base URL is parsed once in New, each dispatch copies it and
// attaches its path and raw query, forwards the identity headers
// (X-Request-ID, Accept, Content-Type, traceparent) and, for a GET,
// relays the answer's
// Content-Type, X-Cache and X-Replica through the value slices they
// arrived in (see internal/httpsvc on header keys), and the ring key
// is hashed straight out of the raw query.
//
// # HTTP chassis and telemetry
//
// Every endpoint is mounted on internal/httpsvc, the chassis the
// replicas mount too; its package documentation is the one statement
// of the per-request protocol (method check, X-Request-ID, trace
// sampling, request accounting, the {"error": "..."} shape, /metrics,
// /debug/traces). Two things are the gateway's own: an unexpected
// handler error is a 502, and a relay that dies after the replica's
// status line is on the wire returns httpsvc.Aborted — counted,
// logged to Config.LogW, nothing appended to the partial body.
//
// Each replica owns its series, registered under its replica label
// when the gateway is built. /stats reports the values of those same
// counters, and the health gauges read the replica's state at scrape
// time, so a dispatch, a failover or an ingest delivery is counted
// once and the two views agree. Each bullet of the catalogue names its
// families before the dash; TestMetricCataloguesMatchRegistries
// (package stochroute) holds the list to what New registers.
// Metric catalogue:
//
//   - http_requests_total, http_request_errors_total,
//     http_request_duration_seconds {endpoint}, uptime_seconds,
//     inflight_requests — the chassis's, as on a replica.
//   - gateway_replicas — the configured fleet size.
//   - gateway_replica_healthy {replica}, gateway_replica_degraded
//     {replica} — 1 or 0 from the replica's state: healthy reads 1
//     unless the replica is down, degraded reads 1 only while it is
//     degraded.
//   - gateway_replica_requests_total {replica},
//     gateway_replica_errors_total {replica},
//     gateway_replica_latency_seconds {replica} — every dispatch (a
//     proxied GET or a sub-batch); errors are transport failures,
//     including a relay cut off mid-body.
//   - gateway_failovers_total {replica} — requests re-routed away from
//     the replica after a dispatch failure.
//   - gateway_batch_items_total {replica} — scatter/gather items the
//     replica answered.
//   - gateway_ingest_enqueued_total {replica},
//     gateway_ingest_delivered_total {replica},
//     gateway_ingest_retries_total {replica},
//     gateway_ingest_dropped_total {replica},
//     gateway_ingest_queue_depth {replica},
//     gateway_ingest_queue_bytes {replica} — the ingest fan-out:
//     dropped counts a full queue at enqueue and a batch out of
//     attempts, so enqueued = delivered + dropped-after-attempts + what
//     is still queued or in flight.
//
// A sampled request's "proxy" (or "proxy/batch") span carries the
// replica it was dispatched to and its span ID travels to that replica
// as the traceparent parent, so /debug/traces on both processes show
// one trace ID: the gateway's tree names the hop, the replica's tree
// (parent_span_id = the proxy span) the search under it.
package gateway

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
// in /healthz. A probe round, or an ingest delivery, that panics is
// logged to Config.LogW and the loop goes on: a dead prober would hold
// every down replica down for good.
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
// queue drops batches for that replica alone. The body is read once,
// with httpsvc.ReadBody, and judged by the replicas' own walk
// (ingestwire.Count, which decodes each trip into one scratch trip and
// keeps none): every body a replica would refuse as a whole — an
// unknown field, an edge ID that is not an int32, trailing data — is
// refused here with the replica's 400 and enqueued nowhere, and the
// acknowledgement splits the trips a replica will read into accepted
// and rejected by every check that needs no road graph. Only a trip
// with an edge off the graph or a break between its edges is counted
// accepted here and rejected by the replicas.
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
// shape (FuzzScanBatchRequest holds the walk to them). The walker is
// httpsvc.Cursor, the one the /ingest walk runs on. A sub-batch is
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
// own Content-Type. Its body is written from a pooled buffer.
//
// # Transport
//
// Everything the gateway sends to its fleet — proxied queries,
// sub-batches, ingest deliveries, health probes — goes through one
// small HTTP/1.1 client of its own (client.go), one per replica, not
// net/http's Transport: a replica is a known peer answering small
// uncompressed JSON, so the client keeps only what that needs.
//
//   - The pool. Each replica keeps a LIFO stack of at most 64 parked
//     keep-alive connections (net/http's default of 2 made a fleet
//     under three concurrent requests per replica re-dial
//     continuously); a request takes the most recently parked one or
//     dials. Each connection has one 4 KiB reader and one 4 KiB writer
//     and its own answer and body readers, all reused by every request
//     it carries; a head scratch that an unusual answer grew past 8 KiB
//     is dropped. A connection goes back on the stack only once its
//     body was read to the end, the answer did not close it and its
//     reader holds no byte past the answer; one parked for 90 s is
//     closed. When the context given to Start ends, the parked
//     connections are closed.
//   - The request. The request line (the replica's base path, then the
//     inbound path and raw query), Host, a POST's Content-Length and the
//     identity headers (Accept, Content-Type, traceparent, X-Request-ID,
//     first values, the inbound request's own strings) are written
//     straight into the connection's writer: no http.Request, no URL,
//     no header map, and no User-Agent. A sub-batch and an ingest
//     delivery are application/json. A value with a control byte is not
//     sent on.
//   - The answer. The status line and header block are read on the
//     caller's goroutine, and only in the dialect a replica's net/http
//     server writes to the gateway's requests; anything else is
//     refused as a replica fault. The status line is "HTTP/1.1 ddd"
//     with a status of at least 200 (the gateway sends no Expect, so
//     no 1xx comes back); a header key is a token, so an obs-fold
//     line is refused; Content-Length comes at most once,
//     Transfer-Encoding only as "chunked", Connection only as "close";
//     the head is capped at 64 KiB. Only those and the three relayed
//     headers, Content-Type, X-Cache and X-Replica, are kept, and the
//     relayed headers' common values (application/json, hit, miss,
//     the replica's own ID) are shared slices. Two framings besides a
//     length stay because real replica traffic uses them. A chunked
//     body, hex sizes with no extension and no trailer, is what
//     net/http writes for any answer over its 2 KiB buffer, a metro
//     batch answer for one, and framing those by length instead would
//     cost the replica a header string per answer. A body that runs to
//     the connection's end is how net/http's server answers before a
//     handler runs (431, 400, 501, with Connection: close); refusing it
//     would mark a replica down for a client's oversized header. The
//     body is read through the connection's length-limited or chunked
//     reader, which relays straight out of the 4 KiB reader
//     (io.WriterTo). FuzzReadReplicaResponse holds what the reader
//     accepts to net/http.ReadResponse, and TestFleetAnswersAccepted
//     holds it to every answer shape a replica writes.
//   - Time limits. RequestTimeout and ProbeTimeout are connection
//     deadlines, set when the request is written: RequestTimeout spans a
//     dispatch from dial to the last relayed body byte, ProbeTimeout one
//     probe. A deadline that passes reads as context.DeadlineExceeded,
//     a 504. When the inbound request's context ends, one
//     context.AfterFunc moves the deadline into the past, so the
//     dispatch ends at once with that context's error (a 499), and the
//     connection is closed.
//   - Stale connections. A parked connection on which bytes or the
//     replica's close arrived while it sat idle is closed, not reused
//     (one non-blocking MSG_PEEK read of its socket, on unix): an
//     answer no request asked for never reaches the next request, the
//     failure class of request smuggling. A request written on a
//     parked connection that fails before the first byte of an answer
//     arrives, other than by a deadline or the context, is sent once
//     more on a fresh dial, as net/http retries a replayable request: a
//     replica that dropped its idle connections (a restart, its own
//     idle timeout) is not marked down for it. An ingest delivery
//     retried this way is still at-least-once, as its backoff retries
//     are.
//
// A failure is wrapped as net/http's client wraps one, method and URL
// in front, so a 504 body or a down-mark log line names the replica
// address that failed. The ring key is hashed straight out of the raw
// query.
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

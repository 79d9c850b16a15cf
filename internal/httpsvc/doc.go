// Package httpsvc is the HTTP service chassis the routing replica
// (internal/server) and the fleet gateway (internal/gateway) both
// mount: one request wrapper, one error shape, one /metrics, one
// /debug/traces and one graceful-shutdown loop, so a fleet feature
// lands on one seam and the two processes cannot drift apart on the
// wire.
//
// # Wrapper protocol
//
// Service.Handle registers a handler for one pattern and one HTTP
// method. Every request to it goes through the same steps, in order:
//
//  1. A request with another method is answered 405 with an Allow
//     header and nothing else happens: no ID, no accounting.
//  2. X-Request-ID is stamped on the response before the handler runs:
//     the client's own, or a freshly minted one, so a log line or span
//     tree is joinable with the response the client saw. X-Replica
//     follows when the service was built with a replica ID.
//  3. Sampling: when a tracer is configured, the request is traced if
//     the tracer's 1-in-N counter fires or the inbound W3C traceparent
//     carries the sampled flag. A traced request gets a root span named
//     after the pattern in its context (handlers hang phase spans off
//     it with obs.StartSpan) and a Traceparent response header naming
//     the trace. An unsampled request skips all of it: no context
//     wrap, no allocation. /metrics and /debug/traces are never
//     sampled — scrapes must not displace request traces from the
//     bounded store.
//  4. Accounting: http_requests_total, http_request_errors_total and
//     http_request_duration_seconds, labelled {endpoint=pattern}, plus
//     the inflight_requests and uptime_seconds gauges, all in the
//     service's registry. Service.EndpointStats reads the same atomics
//     for /stats, so the two views cannot disagree at rest.
//  5. The handler's error return decides the failure answer. An *Error
//     is written as its status with the body {"error": msg}; an
//     *Aborted is counted and logged but nothing is written, because
//     the status line and part of the body are already on the wire;
//     any other error is written with the service's fallback status
//     (500 on a replica, 502 on the gateway, whose untyped failures are
//     its backends').
//
// # Parameters and header keys
//
// Two rules keep the per-request path from re-doing work, and every
// handler on either service follows them.
//
// Query parameters are read with QueryParam, or IntParam, FloatParam
// and BoolParam on top of it, never through the URL's Query method:
// that parses the whole query string into a fresh url.Values map on
// every call, and a handler reading five parameters paid for five
// maps. QueryParam scans the raw query for the one key and returns
// what that map's Get(key) would — first value wins, a pair that is
// malformed or contains ';' is skipped — as a sub-string of the query
// when nothing needs decoding. FuzzRawQuery holds it to net/url's
// answer.
//
// Headers the fleet protocol names are read and written as map entries
// under the Header* constants, which spell each key in net/http's
// canonical form (X-Request-Id, Traceparent: the form already on the
// wire, and what Get("X-Request-ID") looks up after canonicalising its
// argument on every call). A value that is the same for every response
// (X-Replica, Content-Type, X-Cache) is one shared slice, and a value
// passed along from another message (the client's request ID, a
// relayed upstream header) is shared with ShareHeader; such slices are
// never written through. Header names in prose keep their familiar
// spelling: header keys are case-insensitive to every peer.
//
// # Mounted endpoints
//
// GET /metrics serves obs.Registry.Handler: the Prometheus 0.0.4 text
// exposition, or OpenMetrics with exemplar trace IDs under Accept:
// application/openmetrics-text. GET /debug/traces exists only with a
// tracer and returns the retained span trees newest first as a
// TracesResponse; its filters are documented on that type. Both go
// through Handle like any other endpoint.
package httpsvc

package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync/atomic"
	"time"
)

// Tracer decides which requests get a span tree and publishes finished
// trees to a SpanStore. A nil *Tracer (or one with a nil store) is the
// disabled tracer: ShouldSample always says no, StartRequest returns a
// nil span, and the whole span API collapses to the zero-allocation
// no-op path.
type Tracer struct {
	store  *SpanStore
	sample uint64 // 1-in-N head sampling; 0 disables unforced sampling
	seq    atomic.Uint64
}

// NewTracer builds a tracer publishing to store. sample <= 0 means only
// requests carrying a sampled inbound traceparent are traced; sample=1
// traces everything. A nil store returns nil (tracing disabled).
func NewTracer(store *SpanStore, sample int) *Tracer {
	if store == nil {
		return nil
	}
	t := &Tracer{store: store}
	if sample > 0 {
		t.sample = uint64(sample)
	}
	return t
}

// Enabled reports whether the tracer can ever produce a trace.
func (t *Tracer) Enabled() bool { return t != nil && t.store != nil }

// Store returns the span store traces are published to (nil when
// disabled).
func (t *Tracer) Store() *SpanStore {
	if t == nil {
		return nil
	}
	return t.store
}

// ShouldSample applies head sampling: forced requests (an inbound
// traceparent with the sampled flag) always trace, everything else
// traces 1-in-N. Costs one atomic increment on the unforced path.
func (t *Tracer) ShouldSample(forced bool) bool {
	if !t.Enabled() {
		return false
	}
	if forced {
		return true
	}
	return t.sample > 0 && t.seq.Add(1)%t.sample == 0
}

// newTrace allocates a trace with a process-unique span-ID seed.
func newTrace(id, parentSpan, requestID, endpoint string) *Trace {
	return &Trace{
		ID:         id,
		ParentSpan: parentSpan,
		RequestID:  requestID,
		Endpoint:   endpoint,
		Start:      time.Now(),
		idSeq:      randUint64() | 1, // never zero: 0 is the "no parent" sentinel
	}
}

// StartRequest begins a sampled trace for one inbound request, adopting
// the trace ID and parent span from tp when it is valid so this hop
// joins the caller's trace. It returns a context carrying the root span
// and the root span itself; the caller must hand the root to Finish.
// Only call after ShouldSample said yes.
func (t *Tracer) StartRequest(ctx context.Context, endpoint, requestID string, tp Traceparent) (context.Context, *Span) {
	if !t.Enabled() {
		return ctx, nil
	}
	id, parent := tp.TraceID, tp.SpanID
	if id == "" {
		id = NewTraceID()
	}
	tr := newTrace(id, parent, requestID, endpoint)
	root := tr.startSpan(endpoint, 0)
	root.start = tr.Start
	return ContextWithSpan(ctx, root), root
}

// StartBackground begins an always-sampled trace for work with no
// inbound request — rebuilds, maintenance jobs. name doubles as the
// trace's endpoint so /debug/traces can filter on it.
func (t *Tracer) StartBackground(name, requestID string) (context.Context, *Span) {
	if !t.Enabled() {
		return context.Background(), nil
	}
	tr := newTrace(NewTraceID(), "", requestID, name)
	root := tr.startSpan(name, 0)
	root.start = tr.Start
	return ContextWithSpan(context.Background(), root), root
}

// Finish ends the root span, stamps the trace's duration and error
// status, and publishes it to the store. Nil-safe; a trace is only
// visible to /debug/traces after Finish.
func (t *Tracer) Finish(root *Span) {
	if t == nil || root == nil {
		return
	}
	root.End()
	tr := root.tr
	tr.mu.Lock()
	tr.end = root.end
	for _, s := range tr.spans {
		if s.errMsg != "" {
			tr.err = true
			break
		}
	}
	tr.mu.Unlock()
	t.store.Add(tr)
}

// randUint64 returns crypto-random bits (math/rand-free so tests can
// not accidentally make IDs deterministic across processes).
func randUint64() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ridSeq.Add(1) ^ 0x9e3779b97f4a7c15
	}
	return binary.LittleEndian.Uint64(b[:])
}

// NewTraceID mints a random W3C trace ID: 32 lowercase hex digits,
// never all-zero.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		binary.LittleEndian.PutUint64(b[:8], randUint64())
		binary.LittleEndian.PutUint64(b[8:], ridSeq.Add(1)|1)
	}
	b[15] |= 1
	return hex.EncodeToString(b[:])
}

// Traceparent is a parsed W3C trace-context header: version 00,
// `00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`.
type Traceparent struct {
	// TraceID is the 32-hex trace ID ("" when the header was absent or
	// invalid).
	TraceID string
	// SpanID is the caller's 16-hex span ID.
	SpanID string
	// Sampled is bit 0 of the flags: the caller asks this hop to record.
	Sampled bool
}

// ParseTraceparent parses a traceparent header. Version 00 is exactly
// 55 characters. Any higher non-"ff" version is read by version 00's
// layout and may carry more fields after the flags, as "-…" (the
// spec's forward-compatibility rule). All-zero IDs are rejected. The
// second return is false when the header is absent or malformed;
// parsing never allocates.
func ParseTraceparent(h string) (Traceparent, bool) {
	// 2 (version) + 1 + 32 (trace-id) + 1 + 16 (parent-id) + 1 + 2 (flags)
	if len(h) < 55 {
		return Traceparent{}, false
	}
	if h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return Traceparent{}, false
	}
	ver := h[:2]
	if len(h) > 55 && (ver == "00" || h[55] != '-') {
		return Traceparent{}, false
	}
	if !isLowerHex(ver) || ver == "ff" {
		return Traceparent{}, false
	}
	traceID, spanID, flags := h[3:35], h[36:52], h[53:55]
	if !isLowerHex(traceID) || !isLowerHex(spanID) || !isLowerHex(flags) {
		return Traceparent{}, false
	}
	if allZero(traceID) || allZero(spanID) {
		return Traceparent{}, false
	}
	return Traceparent{
		TraceID: traceID,
		SpanID:  spanID,
		Sampled: hexNibble(flags[1])&1 == 1,
	}, true
}

// FormatTraceparent renders a version-00 traceparent header for the
// outbound (or response) side of a hop.
func FormatTraceparent(traceID, spanID string, sampled bool) string {
	flags := "00"
	if sampled {
		flags = "01"
	}
	return "00-" + traceID + "-" + spanID + "-" + flags
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func allZero(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return false
		}
	}
	return true
}

func hexNibble(c byte) byte {
	if c >= 'a' {
		return c - 'a' + 10
	}
	return c - '0'
}

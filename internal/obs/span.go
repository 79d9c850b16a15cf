package obs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Span-based tracing. A Trace is the span tree for one sampled request
// (or one background job such as a slice rebuild); a Span is one timed
// phase inside it. The API is built around one invariant: when a
// request is NOT sampled, every call in this file is a no-op that
// allocates nothing — StartSpan returns the context untouched and a nil
// *Span, and all *Span methods are nil-safe. The routing hot path calls
// these functions unconditionally; TestSpanUnsampledZeroAlloc proves the
// unsampled cost is zero allocations.
//
// Concurrency contract: spans may be STARTED from multiple goroutines
// sharing one trace (batch workers), which is why Trace guards its span
// list with a mutex. A single Span, however, is owned by the goroutine
// that started it: SetXxx/End are not synchronized. Readers (the
// /debug/traces scraper) only ever see traces after Tracer.Finish has
// published them through the SpanStore's atomics, which establishes the
// necessary happens-before edge.

// attrKind discriminates the Attr payload.
type attrKind uint8

const (
	attrStr attrKind = iota
	attrInt
	attrFloat
	attrBool
)

// Attr is one key/value annotation on a span. The value lives in a
// typed field (never an interface{}) so that setting attributes on a
// nil span boxes nothing and the sampled path allocates only the slice
// growth.
type Attr struct {
	Key  string
	str  string
	num  float64
	kind attrKind
}

// Value returns the attribute's value in its natural dynamic type
// (string, int64, float64 or bool) — for rendering, not for hot paths.
func (a Attr) Value() any {
	switch a.kind {
	case attrStr:
		return a.str
	case attrInt:
		return int64(a.num)
	case attrFloat:
		return a.num
	default:
		return a.num != 0
	}
}

// Span is one timed operation inside a trace. A nil *Span is the
// unsampled span: every method returns immediately.
type Span struct {
	tr     *Trace
	id     uint64 // wire ID; unique within the process
	parent uint64 // parent span's wire ID; 0 for the root span
	name   string
	start  time.Time
	end    time.Time
	errMsg string
	attrs  []Attr
}

// Name returns the span's operation name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// WireID renders the span ID in W3C form: 16 lowercase hex digits ("" for
// a nil span).
func (s *Span) WireID() string {
	if s == nil {
		return ""
	}
	return fmt.Sprintf("%016x", s.id)
}

// TraceID returns the 32-hex W3C trace ID of the owning trace, or ""
// for a nil span.
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.tr.ID
}

// Start returns the span's start time.
func (s *Span) Start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return s.start
}

// Duration returns end-start, or time-since-start for a live span.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Err returns the span's error message ("" when none).
func (s *Span) Err() string {
	if s == nil {
		return ""
	}
	return s.errMsg
}

// Attrs returns the span's attributes.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// End marks the span finished. Safe to call on a nil span; the first
// call wins.
func (s *Span) End() {
	if s == nil || !s.end.IsZero() {
		return
	}
	s.end = time.Now()
}

// SetError records err as the span's error status (nil err or nil span:
// no-op).
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.errMsg = err.Error()
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, str: v, kind: attrStr})
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, num: float64(v), kind: attrInt})
}

// SetFloat attaches a float attribute.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, num: v, kind: attrFloat})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	a := Attr{Key: key, kind: attrBool}
	if v {
		a.num = 1
	}
	s.attrs = append(s.attrs, a)
}

// Trace is one completed (or in-flight) span tree. ID/ParentSpan/
// RequestID/Endpoint/Start are set at creation and immutable; the span
// list grows under mu until Tracer.Finish publishes the trace.
type Trace struct {
	// ID is the W3C trace ID: 32 lowercase hex digits. Inherited from an
	// inbound traceparent header when present, minted otherwise.
	ID string
	// ParentSpan is the inbound traceparent's parent-id (16 hex) — the
	// caller's span on the far side of the hop — or "" when this process
	// started the trace.
	ParentSpan string
	// RequestID joins the trace to the X-Request-ID header and the
	// slow-query log.
	RequestID string
	// Endpoint is the mux pattern (or background job name) that owns the
	// trace.
	Endpoint string
	// Start is the root span's start time.
	Start time.Time

	mu    sync.Mutex
	spans []*Span
	idSeq uint64 // next span ID; pre-seeded with process-unique randomness
	end   time.Time
	err   bool
}

// startSpan appends a new live span to the trace.
func (t *Trace) startSpan(name string, parent uint64) *Span {
	t.mu.Lock()
	id := t.idSeq
	t.idSeq++
	s := &Span{tr: t, id: id, parent: parent, name: name, start: time.Now()}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Duration returns the root span's wall-clock duration (zero until the
// trace is finished).
func (t *Trace) Duration() time.Duration {
	if t.end.IsZero() {
		return 0
	}
	return t.end.Sub(t.Start)
}

// Err reports whether any span in the trace recorded an error.
func (t *Trace) Err() bool { return t.err }

// SpanNode is one node of the parent/child tree that Tree rebuilds from
// the flat span list.
type SpanNode struct {
	Span     *Span
	Children []*SpanNode
}

// Tree rebuilds the span tree from parent IDs. Spans whose parent is
// missing (impossible through the public API) attach to the root.
// Children appear in start order because spans are appended in start
// order.
func (t *Trace) Tree() *SpanNode {
	t.mu.Lock()
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	t.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	nodes := make(map[uint64]*SpanNode, len(spans))
	for _, s := range spans {
		nodes[s.id] = &SpanNode{Span: s}
	}
	root := nodes[spans[0].id]
	for _, s := range spans[1:] {
		p, ok := nodes[s.parent]
		if !ok || p == nodes[s.id] {
			p = root
		}
		p.Children = append(p.Children, nodes[s.id])
	}
	return root
}

// ctxKey is the context key for the active span. A zero-size type keeps
// the Value lookup allocation-free.
type ctxKey struct{}

// SpanFromContext returns the context's active span, or nil when the
// request is unsampled. Never allocates.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// ContextWithSpan returns a context carrying s as the active span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// StartSpan begins a child of the context's active span. When the
// context carries no span (the request is unsampled) it returns the
// context untouched and a nil span — zero allocations, so hot paths can
// call it unconditionally. The caller must End the returned span.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.startSpan(name, parent.id)
	return context.WithValue(ctx, ctxKey{}, s), s
}

package httpsvc

import (
	"net/http"
	"time"

	"stochroute/internal/obs"
)

// TraceSpan is one node of a rendered span tree. Times are offsets
// from the trace start so a tree reads like a waterfall.
type TraceSpan struct {
	Name       string         `json:"name"`
	SpanID     string         `json:"span_id"`
	StartMS    float64        `json:"start_ms"`
	DurationMS float64        `json:"duration_ms"`
	Error      string         `json:"error,omitempty"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*TraceSpan   `json:"children,omitempty"`
}

// Trace is one rendered trace. Across a fleet the gateway's tree and
// the replica's tree for the same request share TraceID, and the
// replica's ParentSpan is the SpanID of the gateway's proxy span.
type Trace struct {
	TraceID    string     `json:"trace_id"`
	ParentSpan string     `json:"parent_span_id,omitempty"`
	RequestID  string     `json:"request_id"`
	Endpoint   string     `json:"endpoint"`
	Start      time.Time  `json:"start"`
	DurationMS float64    `json:"duration_ms"`
	Error      bool       `json:"error,omitempty"`
	Root       *TraceSpan `json:"root"`
}

// TracesResponse is the GET /debug/traces answer: the span trees of
// recently sampled requests (and background jobs), newest first.
//
// Query parameters:
//
//	n          - max traces to return (default 32, capped by retention)
//	request_id - only traces whose X-Request-ID matches exactly
//	trace_id   - only the trace with this W3C trace ID (exemplar lookup)
//	endpoint   - only traces for this endpoint/job ("/route", "rebuild")
//	min_ms     - only traces at least this slow
//	errors     - "true": only traces that recorded an error
//
// The store retains slow and error traces preferentially, so a trace
// that was worth debugging is findable even after the main ring has
// cycled past it.
type TracesResponse struct {
	Traces []Trace `json:"traces"`
	// Retained is how many traces the store currently holds (before
	// filtering), so a client can tell "no match" from "already
	// evicted".
	Retained int `json:"retained"`
	// SlowThresholdMS echoes the store's slow-retention threshold.
	SlowThresholdMS float64 `json:"slow_threshold_ms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func renderSpanTree(start time.Time, n *obs.SpanNode) *TraceSpan {
	if n == nil {
		return nil
	}
	sp := n.Span
	out := &TraceSpan{
		Name:       sp.Name(),
		SpanID:     sp.WireID(),
		StartMS:    ms(sp.Start().Sub(start)),
		DurationMS: ms(sp.Duration()),
		Error:      sp.Err(),
	}
	if attrs := sp.Attrs(); len(attrs) > 0 {
		out.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			out.Attrs[a.Key] = a.Value()
		}
	}
	for _, c := range n.Children {
		out.Children = append(out.Children, renderSpanTree(start, c))
	}
	return out
}

func (s *Service) handleDebugTraces(w http.ResponseWriter, r *http.Request) error {
	store := s.opts.Tracer.Store()
	n, err := IntParam(r, "n", 32)
	if err != nil {
		return err
	}
	if n < 1 {
		n = 1
	}
	minMS, err := FloatParam(r, "min_ms", 0)
	if err != nil {
		return err
	}
	errorsOnly, err := BoolParam(r, "errors", false)
	if err != nil {
		return err
	}
	rid, traceID, endpoint := QueryParam(r, "request_id"), QueryParam(r, "trace_id"), QueryParam(r, "endpoint")

	all := store.Snapshot()
	out := &TracesResponse{
		// Clamped before preallocation: ?n=1e9 must not ask the
		// allocator for gigabytes.
		Traces:          make([]Trace, 0, min(n, len(all))),
		Retained:        len(all),
		SlowThresholdMS: ms(store.SlowThreshold()),
	}
	minDur := time.Duration(minMS * float64(time.Millisecond))
	for _, t := range all {
		if len(out.Traces) >= n {
			break
		}
		switch {
		case rid != "" && t.RequestID != rid,
			traceID != "" && t.ID != traceID,
			endpoint != "" && t.Endpoint != endpoint,
			t.Duration() < minDur,
			errorsOnly && !t.Err():
			continue
		}
		out.Traces = append(out.Traces, Trace{
			TraceID:    t.ID,
			ParentSpan: t.ParentSpan,
			RequestID:  t.RequestID,
			Endpoint:   t.Endpoint,
			Start:      t.Start,
			DurationMS: ms(t.Duration()),
			Error:      t.Err(),
			Root:       renderSpanTree(t.Start, t.Tree()),
		})
	}
	return WriteJSON(w, out)
}

// Package obs is the repo's observability layer: a stdlib-only metrics
// registry (atomic counters, gauges and fixed-bucket histograms) with a
// Prometheus-text-format exporter, plus the span tracer (span.go,
// tracer.go, spanstore.go).
//
// The design goal is zero allocations on the instrumented hot path.
// All allocation happens at registration time: a metric child is looked
// up once (by name + label set), held as a pointer, and every Inc/Add/
// Set/Observe after that is a handful of atomic operations — no maps,
// no label rendering, no interface boxing. TestHotPathZeroAllocs
// asserts the property.
//
// Exposition is deterministic: families sorted by name, children sorted
// by rendered label set, histograms emitted as cumulative _bucket{le=}
// series plus _sum and _count, exactly as the Prometheus text format
// specifies — so golden tests can assert on the byte output and any
// Prometheus-compatible scraper can consume /metrics unchanged.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates the three exposition types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Label is one name="value" pair attached to a metric child. Children
// of a family are distinguished by their full label set.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// child is anything that can render its sample lines.
type child interface {
	write(w io.Writer, name, labels string)
}

// exemplarChild is a child that renders extra detail (exemplar
// annotations) in the OpenMetrics exposition. Children that do not
// implement it render identically in both formats.
type exemplarChild interface {
	writeOM(w io.Writer, name, labels string)
}

// childEntry pairs a rendered label string with its metric.
type childEntry struct {
	labels string // rendered {a="b",c="d"} or ""
	metric child
}

// family is one metric name: a help string, a type, and its children.
type family struct {
	name     string
	help     string
	kind     metricKind
	children map[string]*childEntry
	order    []*childEntry // insertion order; sorted at scrape time
}

// Registry holds metric families and renders them in the Prometheus
// text exposition format. All methods are safe for concurrent use; the
// hot-path types it hands out (Counter, Gauge, Histogram) are lock-free.
//
// Registration is idempotent: asking twice for the same (name, labels)
// returns the same child, so independent subsystems can share series.
// Re-registering a name with a different type or an inconsistent label
// scheme panics — that is a programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels builds the canonical `{a="b",c="d"}` form, sorted by
// label name, with Prometheus escaping (backslash, quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	// Byte by byte, so the bytes of a value that is not valid UTF-8
	// render unchanged, as on the fast path above, rather than as
	// replacement characters ParseText could not undo.
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// lookup returns the family for name, creating it if absent, and panics
// on a type or help mismatch with a previous registration.
func (r *Registry) lookup(name, help string, kind metricKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: make(map[string]*childEntry)}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// childFor returns the existing child for the label set or installs the
// one built by mk.
func (f *family) childFor(labels []Label, mk func() child) child {
	key := renderLabels(labels)
	if e, ok := f.children[key]; ok {
		return e.metric
	}
	e := &childEntry{labels: key, metric: mk()}
	f.children[key] = e
	f.order = append(f.order, e)
	return e.metric
}

// Counter returns the monotonically increasing counter registered under
// name with the given label set, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	c := f.childFor(labels, func() child { return new(Counter) })
	cc, ok := c.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a plain counter", name))
	}
	return cc
}

// Gauge returns the gauge registered under name with the given label
// set, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	g := f.childFor(labels, func() child { return new(Gauge) })
	gg, ok := g.(*Gauge)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a plain gauge", name))
	}
	return gg
}

// Histogram returns the histogram registered under name with the given
// label set, creating it with the supplied bucket upper bounds (must be
// sorted ascending, finite, non-empty) on first use. An implicit +Inf
// bucket is always appended. Re-registering an existing child ignores
// the bounds argument.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	h := f.childFor(labels, func() child { return newHistogram(bounds) })
	hh, ok := h.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: metric %q is not a histogram", name))
	}
	return hh
}

// GaugeFunc registers a gauge whose value is computed by fn at scrape
// time — for values that already live elsewhere (uptime, epochs, cache
// occupancy) and would be silly to mirror into an atomic.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGauge)
	f.childFor(labels, func() child { return funcMetric(fn) })
}

// CounterFunc registers a counter whose value is read by fn at scrape
// time. fn must be monotonically non-decreasing (e.g. a lifetime total
// maintained elsewhere); the registry does not enforce it.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	f.childFor(labels, func() child { return funcMetric(fn) })
}

// WriteText renders every registered family in the Prometheus text
// exposition format (version 0.0.4), deterministically ordered:
// families by name, children by rendered label set.
func (r *Registry) WriteText(w io.Writer) error {
	return r.writeExposition(w, false)
}

// WriteOpenMetrics renders the same families as WriteText but with
// OpenMetrics extras: histogram buckets carry exemplar annotations
// (`# {trace_id="..."} value timestamp`) when one was recorded, and the
// output ends with the mandatory `# EOF` terminator. Everything else is
// byte-identical to the 0.0.4 exposition, so ParseText-based tooling
// keeps working on either.
func (r *Registry) WriteOpenMetrics(w io.Writer) error {
	if err := r.writeExposition(w, true); err != nil {
		return err
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}

func (r *Registry) writeExposition(w io.Writer, om bool) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	fams := make([]*family, len(names))
	for i, name := range names {
		fams[i] = r.families[name]
	}
	r.mu.Unlock()

	bw := &errWriter{w: w}
	for _, f := range fams {
		r.mu.Lock()
		entries := make([]*childEntry, len(f.order))
		copy(entries, f.order)
		r.mu.Unlock()
		sort.Slice(entries, func(i, j int) bool { return entries[i].labels < entries[j].labels })

		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, e := range entries {
			if ec, ok := e.metric.(exemplarChild); ok && om {
				ec.writeOM(bw, f.name, e.labels)
				continue
			}
			e.metric.write(bw, f.name, e.labels)
		}
	}
	return bw.err
}

// openMetricsType is the media type that selects the exemplar-bearing
// exposition on /metrics.
const openMetricsType = "application/openmetrics-text"

// Handler returns an http.Handler serving the text exposition — mount
// it at GET /metrics. Scrapers that send an Accept header naming
// application/openmetrics-text get the OpenMetrics rendering with
// exemplars; everyone else gets the plain 0.0.4 exposition.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if strings.Contains(req.Header.Get("Accept"), openMetricsType) {
			w.Header().Set("Content-Type", openMetricsType+"; version=1.0.0; charset=utf-8")
			_ = r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}

// errWriter remembers the first write error so exposition code does not
// have to check every Fprintf.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

// formatFloat renders a sample value the way Prometheus expects:
// shortest round-trippable representation, with +Inf/-Inf/NaN spelled
// out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter is a monotonically increasing counter. The zero value is
// ready to use, but counters should normally come from
// Registry.Counter so they are exported.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative n panics: counters only go up).
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, labels, c.v.Load())
}

// Gauge is a float64 value that can go up and down, stored as IEEE bits
// behind an atomic so readers never see torn values.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

func (g *Gauge) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(g.Value()))
}

// funcMetric adapts a scrape-time function to the child interface.
type funcMetric func() float64

func (f funcMetric) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, labels, formatFloat(f()))
}

// Exemplar links one histogram bucket to a recent trace: the observed
// value, the W3C trace ID of the request that produced it, and when it
// was recorded. "p99 got worse" becomes "open this trace".
type Exemplar struct {
	TraceID string
	Value   float64
	Time    time.Time
}

// Histogram is a fixed-bucket histogram: cumulative counts are derived
// at scrape time from per-bucket atomics, so Observe is a bucket scan
// plus three atomic operations and never allocates. Each bucket can
// additionally hold the most recent exemplar (set only on the sampled
// path via ObserveWithExemplar, so plain Observe stays allocation-free).
type Histogram struct {
	bounds    []float64 // sorted upper bounds, +Inf implicit
	counts    []atomic.Uint64
	count     atomic.Uint64
	sumBits   atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("obs: histogram bounds must be finite")
		}
		if i > 0 && bounds[i-1] >= b {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	return &Histogram{
		bounds:    bs,
		counts:    make([]atomic.Uint64, len(bs)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(bs)+1),
	}
}

// Observe records one value. It is lock-free and allocation-free.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveWithExemplar records one value and attaches traceID as the
// bucket's exemplar. Only sampled requests take this path; it allocates
// one Exemplar, which is fine — sampling already paid for a span tree.
// An empty traceID degrades to a plain Observe.
func (h *Histogram) ObserveWithExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	if traceID != "" {
		i := 0
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v, Time: time.Now()})
	}
	h.Observe(v)
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	h.writeBuckets(w, name, labels, false)
}

// writeOM renders the OpenMetrics variant: bucket lines carry exemplar
// annotations when one was recorded.
func (h *Histogram) writeOM(w io.Writer, name, labels string) {
	h.writeBuckets(w, name, labels, true)
}

func (h *Histogram) writeBuckets(w io.Writer, name, labels string, om bool) {
	// Rendered as cumulative buckets; the le label joins any existing
	// label set.
	var cum uint64
	for i := 0; i <= len(h.bounds); i++ {
		bound := "+Inf"
		if i < len(h.bounds) {
			bound = formatFloat(h.bounds[i])
		}
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d", name, joinLE(labels, bound), cum)
		if om {
			if e := h.exemplars[i].Load(); e != nil {
				fmt.Fprintf(w, " # {trace_id=\"%s\"} %s %.3f",
					escapeLabelValue(e.TraceID), formatFloat(e.Value),
					float64(e.Time.UnixMilli())/1e3)
			}
		}
		fmt.Fprintf(w, "\n")
	}
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.count.Load())
}

// joinLE splices le="bound" into an already-rendered label string.
func joinLE(labels, bound string) string {
	if labels == "" {
		return `{le="` + bound + `"}`
	}
	return labels[:len(labels)-1] + `,le="` + bound + `"}`
}

// LatencyBuckets are the default request-latency bucket bounds in
// seconds: 100µs to ~100s in roughly 2.5x steps — wide enough for a
// cache hit and a cold OSM-scale search on the same axis.
func LatencyBuckets() []float64 {
	return []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
		0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
	}
}

// ExponentialBuckets returns n bucket bounds starting at start and
// multiplying by factor: start, start*factor, ... — the standard shape
// for count-valued search telemetry. Panics on start <= 0, factor <= 1
// or n < 1.
func ExponentialBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBuckets needs start > 0, factor > 1, n >= 1")
	}
	bs := make([]float64, n)
	for i := range bs {
		bs[i] = start
		start *= factor
	}
	return bs
}

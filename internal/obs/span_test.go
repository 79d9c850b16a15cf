package obs

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// newTestTracer builds an always-sampling tracer over a small store.
func newTestTracer(capacity int, slow time.Duration) *Tracer {
	return NewTracer(NewSpanStore(capacity, slow), 1)
}

func TestSpanNilSafety(t *testing.T) {
	// Every method of a nil *Span must be a no-op: the unsampled hot
	// path calls them unconditionally.
	var sp *Span
	sp.End()
	sp.SetError(nil)
	sp.SetStr("k", "v")
	sp.SetInt("k", 1)
	sp.SetFloat("k", 1.5)
	sp.SetBool("k", true)
	if sp.Name() != "" || sp.WireID() != "" || sp.TraceID() != "" || sp.Err() != "" {
		t.Error("nil span accessors should return zero values")
	}
	if sp.Duration() != 0 || len(sp.Attrs()) != 0 {
		t.Error("nil span duration/attrs should be zero")
	}
}

func TestStartSpanUnsampledContext(t *testing.T) {
	ctx := context.Background()
	ctx2, sp := StartSpan(ctx, "anything")
	if sp != nil {
		t.Fatal("StartSpan on a span-free context must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan on a span-free context must return the context unchanged (no allocation)")
	}
}

func TestSpanTreeParentage(t *testing.T) {
	tr := newTestTracer(16, 0)
	ctx, root := tr.StartRequest(context.Background(), "/route", "req-1", Traceparent{})
	if root == nil {
		t.Fatal("sample=1 tracer must sample")
	}
	root.SetStr("k", "v")

	cctx, child := StartSpan(ctx, "cache-lookup")
	child.SetBool("hit", false)
	_, grand := StartSpan(cctx, "search")
	grand.SetInt("expansions", 42)
	grand.End()
	child.End()
	_, sib := StartSpan(ctx, "encode")
	sib.End()
	tr.Finish(root)

	traces := tr.Store().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("want 1 stored trace, got %d", len(traces))
	}
	got := traces[0]
	if got.RequestID != "req-1" || got.Endpoint != "/route" {
		t.Errorf("trace identity = %q/%q", got.RequestID, got.Endpoint)
	}
	tree := got.Tree()
	if tree == nil || tree.Span.Name() != "/route" {
		t.Fatalf("root = %+v", tree)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(tree.Children))
	}
	cache := tree.Children[0]
	if cache.Span.Name() != "cache-lookup" || len(cache.Children) != 1 {
		t.Fatalf("first child = %s with %d children", cache.Span.Name(), len(cache.Children))
	}
	if cache.Children[0].Span.Name() != "search" {
		t.Errorf("grandchild = %s, want search", cache.Children[0].Span.Name())
	}
	if tree.Children[1].Span.Name() != "encode" {
		t.Errorf("second child = %s, want encode", tree.Children[1].Span.Name())
	}
	// Attributes survive with their types.
	attrs := cache.Children[0].Span.Attrs()
	if len(attrs) != 1 || attrs[0].Key != "expansions" || attrs[0].Value() != int64(42) {
		t.Errorf("search attrs = %+v", attrs)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(NewSpanStore(16, 0), 4)
	sampled := 0
	for i := 0; i < 8; i++ {
		if tr.ShouldSample(false) {
			sampled++
		}
	}
	if sampled != 2 {
		t.Errorf("1-in-4 sampling over 8 requests = %d, want 2", sampled)
	}
	if !tr.ShouldSample(true) {
		t.Error("forced sampling must always sample")
	}
	var nilTracer *Tracer
	if nilTracer.ShouldSample(true) || nilTracer.Enabled() {
		t.Error("nil tracer must never sample")
	}
	if NewTracer(nil, 1) != nil {
		t.Error("tracer without a store must be nil (nothing to keep traces in)")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	traceID := NewTraceID()
	header := FormatTraceparent(traceID, "00f067aa0ba902b7", true)
	tp, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected our own header", header)
	}
	if tp.TraceID != traceID || tp.SpanID != "00f067aa0ba902b7" || !tp.Sampled {
		t.Errorf("round trip = %+v", tp)
	}
	if tp2, ok := ParseTraceparent(FormatTraceparent(traceID, "00f067aa0ba902b7", false)); !ok || tp2.Sampled {
		t.Errorf("unsampled round trip = %+v ok=%v", tp2, ok)
	}

	invalid := []string{
		"",
		"00-abc-def-01",
		"zz-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00f067aa0ba902b7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
	}
	for _, h := range invalid {
		if _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted an invalid header", h)
		}
	}
	// A sampled inbound header adopts the caller's IDs.
	tr := newTestTracer(16, 0)
	_, root := tr.StartRequest(context.Background(), "/route", "req-2", tp)
	tr.Finish(root)
	got := tr.Store().Find(traceID)
	if got == nil {
		t.Fatalf("trace %s not adopted from inbound traceparent", traceID)
	}
	if got.ParentSpan != "00f067aa0ba902b7" {
		t.Errorf("parent span = %q", got.ParentSpan)
	}
}

func TestSpanStoreRetention(t *testing.T) {
	tr := NewTracer(NewSpanStore(16, 50*time.Millisecond), 1)
	mkTrace := func(rid string, fail bool) {
		_, root := tr.StartRequest(context.Background(), "/route", rid, Traceparent{})
		if fail {
			root.SetError(context.DeadlineExceeded)
		}
		tr.Finish(root)
	}
	mkTrace("err-1", true)
	// Flood the main ring far past capacity: the error trace must
	// survive in the kept ring.
	for i := 0; i < 100; i++ {
		mkTrace("ok", false)
	}
	found := false
	for _, tc := range tr.Store().Snapshot() {
		if tc.RequestID == "err-1" {
			found = true
			if !tc.Err() {
				t.Error("error trace lost its error status")
			}
		}
	}
	if !found {
		t.Error("error trace evicted despite preferential retention")
	}
}

func TestSpanStoreConcurrent(t *testing.T) {
	tr := NewTracer(NewSpanStore(32, 0), 1)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers snapshot while writers add: the race detector proves the
	// lock-free ring publishes safely.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tc := range tr.Store().Snapshot() {
					if tc.Tree() == nil {
						t.Error("stored trace with no root")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartRequest(context.Background(), "/route", "c", Traceparent{})
				_, sp := StartSpan(ctx, "search")
				sp.SetInt("i", int64(i))
				sp.End()
				tr.Finish(root)
			}
		}(w)
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()
}

func TestExemplarOpenMetrics(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("route_latency_seconds", "Route latency.", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.ObserveWithExemplar(0.5, "4bf92f3577b34da6a3ce929d0e0e4736")

	// The default 0.0.4 exposition must not change at all: exemplars are
	// OpenMetrics-only syntax.
	var plain strings.Builder
	if err := reg.WriteText(&plain); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "# {") || strings.Contains(plain.String(), "EOF") {
		t.Errorf("plain exposition leaked OpenMetrics syntax:\n%s", plain.String())
	}

	var om strings.Builder
	if err := reg.WriteOpenMetrics(&om); err != nil {
		t.Fatal(err)
	}
	out := om.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Error("OpenMetrics exposition must end with # EOF")
	}
	want := `route_latency_seconds_bucket{le="1"} 2 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 0.5`
	if !strings.Contains(out, want) {
		t.Errorf("missing exemplar annotation %q in:\n%s", want, out)
	}
	if strings.Contains(out, `le="0.01"} 1 # {`) {
		t.Error("bucket without an exemplar must not carry an annotation")
	}

	// ParseText tolerates exemplar suffixes, so loadgen can scrape the
	// OpenMetrics rendering too.
	samples, err := ParseText(strings.NewReader(out))
	if err != nil {
		t.Fatalf("ParseText on OpenMetrics output: %v", err)
	}
	foundBucket := false
	for _, s := range samples {
		if s.Name == "route_latency_seconds_bucket" && s.Labels["le"] == "1" {
			foundBucket = true
			if s.Value != 2 {
				t.Errorf("bucket value = %v, want 2", s.Value)
			}
		}
	}
	if !foundBucket {
		t.Error("exemplar-annotated bucket did not parse")
	}
}

func TestRuntimeStats(t *testing.T) {
	reg := NewRegistry()
	rs := RegisterRuntimeMetrics(reg)
	if rs.Goroutines() < 1 || rs.GOMAXPROCS() < 1 {
		t.Error("goroutines and GOMAXPROCS must be at least 1")
	}
	if rs.HeapInuseBytes() == 0 {
		t.Error("heap in-use cannot be zero in a running process")
	}
	var out strings.Builder
	if err := reg.WriteText(&out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"go_goroutines", "go_heap_inuse_bytes", "go_gomaxprocs", "go_gc_pause_seconds_total", "go_gc_cycles_total"} {
		if !strings.Contains(out.String(), name+" ") {
			t.Errorf("missing %s in exposition", name)
		}
	}
}

// TestSpanUnsampledZeroAlloc is the hot-path guarantee: a request that
// was not sampled pays nothing — no context wrap, no span object, no
// attribute boxing.
func TestSpanUnsampledZeroAlloc(t *testing.T) {
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		sctx, sp := StartSpan(ctx, "search")
		sp.SetInt("expansions", 42)
		sp.SetBool("found", true)
		sp.SetError(nil)
		sp.End()
		_, sp2 := StartSpan(sctx, "child")
		sp2.End()
	}); n != 0 {
		t.Errorf("unsampled span path allocates %v times per request, want 0", n)
	}
}

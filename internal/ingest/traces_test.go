package ingest

import (
	"context"
	"testing"
	"time"

	"stochroute/internal/hybrid"
	"stochroute/internal/obs"
)

// TestRebuildTrace: a background rebuild records an always-sampled
// trace — root "rebuild" with build-kb, train and swap phase spans — in
// the shared span store, so /debug/traces?endpoint=rebuild explains
// where a hot swap's seconds went.
func TestRebuildTrace(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	tracer := obs.NewTracer(obs.NewSpanStore(16, time.Hour), 1000000)
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1, RebuildEvery: 100},
		MinRebuildTrajectories: 100,
		Tracer:                 tracer,
	}, nil)

	in.Ingest(fx.trajs[:150])
	in.WaitRebuilds()
	if in.Status().Rebuilds == 0 {
		t.Fatalf("no rebuild completed: %+v", in.Status())
	}

	var rebuild *obs.Trace
	for _, tr := range tracer.Store().Snapshot() {
		if tr.Endpoint == "rebuild" {
			rebuild = tr
		}
	}
	if rebuild == nil {
		t.Fatal("rebuild left no trace despite a 1-in-1e6 request sampling rate (rebuilds are always sampled)")
	}
	if rebuild.RequestID == "" {
		t.Error("rebuild trace has no minted request ID")
	}
	if rebuild.Err() {
		t.Error("successful rebuild marked as error")
	}
	tree := rebuild.Tree()
	if tree == nil || tree.Span.Name() != "rebuild" {
		t.Fatalf("root span = %v", tree)
	}
	rootAttrs := map[string]any{}
	for _, a := range tree.Span.Attrs() {
		rootAttrs[a.Key] = a.Value()
	}
	if rootAttrs["reason"] != "trajectory count" && rootAttrs["reason"] != "drift" {
		t.Errorf("root attrs = %v, want a rebuild reason", rootAttrs)
	}
	if n, ok := rootAttrs["trajectories"].(int64); !ok || n < 100 {
		t.Errorf("root attrs = %v, want trajectories >= 100", rootAttrs)
	}
	want := map[string]bool{"build-kb": false, "train": false, "swap": false}
	for _, c := range tree.Children {
		if _, ok := want[c.Span.Name()]; ok {
			want[c.Span.Name()] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("rebuild trace missing %q phase span", name)
		}
	}
}

// TestIngestRequestSpans: IngestCtx attaches validate/fold/drift spans
// to the caller's trace when the request was sampled.
func TestIngestRequestSpans(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	tracer := obs.NewTracer(obs.NewSpanStore(16, 0), 1)
	in := New(tgt, Config{
		Hybrid: lightHybridConfig(fx.width),
		Drift:  DriftConfig{Window: 50, MinEdgeObs: 1},
		Tracer: tracer,
	}, nil)

	ctx, root := tracer.StartRequest(context.Background(), "/ingest", "req-ingest", obs.Traceparent{})
	accepted, _ := in.IngestCtx(ctx, fx.trajs[:60])
	tracer.Finish(root)
	if accepted == 0 {
		t.Fatal("nothing accepted")
	}
	in.WaitRebuilds()

	tr := tracer.Store().Snapshot()
	if len(tr) == 0 {
		t.Fatal("no trace stored")
	}
	tree := tr[0].Tree()
	names := map[string]bool{}
	for _, c := range tree.Children {
		names[c.Span.Name()] = true
	}
	if !names["ingest-validate"] || !names["ingest-fold"] {
		t.Errorf("ingest spans = %v, want ingest-validate and ingest-fold", names)
	}
}

// TestPanickingRebuildKeepsServing: a panic inside a rebuild is that
// rebuild's error. It is counted and recorded on the rebuild's trace,
// the serving generation stays, the slice is no longer rebuilding,
// WaitRebuilds returns, and the next trigger rebuilds and swaps.
func TestPanickingRebuildKeepsServing(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1, panicSwaps: 1}
	tracer := obs.NewTracer(obs.NewSpanStore(16, time.Hour), 1000000)
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: -1, RebuildEvery: 100},
		MinRebuildTrajectories: 100,
		Tracer:                 tracer,
	}, nil)

	in.Ingest(fx.trajs[:150])
	in.WaitRebuilds()
	if st := in.Status(); st.RebuildErrors != 1 || st.Rebuilds != 0 || st.Rebuilding {
		t.Fatalf("after the panicking rebuild: %d errors, %d rebuilds, rebuilding %v; want 1, 0, false",
			st.RebuildErrors, st.Rebuilds, st.Rebuilding)
	}
	if e := tgt.ModelEpoch(); e != 1 {
		t.Errorf("serving epoch %d after a panicking rebuild, want 1", e)
	}
	traces := tracer.Store().Snapshot()
	if len(traces) != 1 || traces[0].Tree().Span.Err() != "panic: swap exploded" {
		t.Errorf("want one rebuild trace whose root carries the panic, got %d traces", len(traces))
	}

	in.Ingest(fx.trajs[150:300])
	in.WaitRebuilds()
	if st := in.Status(); st.RebuildErrors != 1 || st.Rebuilds != 1 || st.Rebuilding {
		t.Fatalf("after the next trigger: %d errors, %d rebuilds, rebuilding %v; want 1, 1, false",
			st.RebuildErrors, st.Rebuilds, st.Rebuilding)
	}
	if e := tgt.ModelEpoch(); e != 2 {
		t.Errorf("serving epoch %d after the next rebuild, want 2", e)
	}
}

package stochroute

import (
	"context"
	"testing"

	"stochroute/internal/obs"
)

// TestEngineRouteCtxSpans proves the real engine's span wiring end to
// end: a sampled context flowing through RouteCtx produces a "search"
// span whose children are the PBR kernel's phase spans (potentials,
// expand), with the search counters attached as attributes — the same
// tree the HTTP layer serves on /debug/traces, here asserted against
// the genuine routing kernel rather than a fake.
func TestEngineRouteCtxSpans(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.5, 1.5, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.OptimisticTime(qs[0].Source, qs[0].Dest)
	if err != nil {
		t.Fatal(err)
	}

	tracer := obs.NewTracer(obs.NewSpanStore(16, 0), 1)
	ctx, root := tracer.StartRequest(context.Background(), "/route", "eng-trace", obs.Traceparent{})
	res, err := e.RouteCtx(ctx, qs[0].Source, qs[0].Dest, RouteOptions{Budget: opt * 1.5})
	if err != nil {
		t.Fatal(err)
	}
	tracer.Finish(root)

	traces := tracer.Store().Snapshot()
	if len(traces) != 1 {
		t.Fatalf("stored traces = %d, want 1", len(traces))
	}
	tree := traces[0].Tree()
	if len(tree.Children) != 1 || tree.Children[0].Span.Name() != "search" {
		t.Fatalf("root children = %v, want one search span", tree.Children)
	}
	search := tree.Children[0]
	attrs := map[string]any{}
	for _, a := range search.Span.Attrs() {
		attrs[a.Key] = a.Value()
	}
	if attrs["found"] != res.Found || attrs["complete"] != res.Complete || attrs["expansions"] != int64(res.Expansions) {
		t.Errorf("search attrs %v disagree with result (found=%v complete=%v expansions=%d)",
			attrs, res.Found, res.Complete, res.Expansions)
	}
	phases := map[string]bool{}
	for _, c := range search.Children {
		phases[c.Span.Name()] = true
	}
	if !phases["potentials"] || !phases["expand"] {
		t.Errorf("search children = %v, want PBR phases potentials and expand", phases)
	}

	// The same query without a sampled context must be allocation-
	// identical to the untraced path: no trace, no spans.
	res2, err := e.RouteCtx(context.Background(), qs[0].Source, qs[0].Dest, RouteOptions{Budget: opt * 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Prob != res.Prob {
		t.Errorf("traced and untraced answers differ: %v vs %v", res2.Prob, res.Prob)
	}
	if len(tracer.Store().Snapshot()) != 1 {
		t.Error("untraced query must not add a trace")
	}
}

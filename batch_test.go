package stochroute

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"stochroute/internal/server"
)

// TestEngineRouteBatchMatchesSequential: a batched answer must be
// item-for-item identical to sequential RouteCtx calls — same
// path, bit-equal probability, same epoch stamp — including error
// items, which must not disturb their neighbours.
func TestEngineRouteBatchMatchesSequential(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.4, 1.4, 8, 91)
	if err != nil {
		t.Fatal(err)
	}
	var queries []BatchQuery
	for _, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, BatchQuery{
			Source: q.Source,
			Dest:   q.Dest,
			Opts:   RouteOptions{Budget: 1.3 * optimistic},
		})
	}
	// Splice in a failing item: invalid (non-positive) budget.
	bad := len(queries) / 2
	queries = append(queries[:bad+1], queries[bad:]...)
	queries[bad] = BatchQuery{Source: 0, Dest: 1, Opts: RouteOptions{Budget: -5}}

	items := e.RouteBatch(context.Background(), queries, 4)
	if len(items) != len(queries) {
		t.Fatalf("got %d items for %d queries", len(items), len(queries))
	}
	for i, q := range queries {
		it := items[i]
		if i == bad {
			if it.Err == nil || it.Result != nil {
				t.Fatalf("item %d: expected error item, got %+v", i, it)
			}
			if it.Epoch != e.ModelEpoch() {
				t.Errorf("error item %d: epoch %d != serving epoch %d", i, it.Epoch, e.ModelEpoch())
			}
			continue
		}
		if it.Err != nil {
			t.Fatalf("item %d: %v", i, it.Err)
		}
		want, err := e.RouteCtx(context.Background(), q.Source, q.Dest, q.Opts)
		if err != nil {
			t.Fatal(err)
		}
		got := it.Result
		if got.Prob != want.Prob {
			t.Errorf("item %d: prob %v != sequential %v", i, got.Prob, want.Prob)
		}
		if len(got.Path) != len(want.Path) {
			t.Fatalf("item %d: path length %d != %d", i, len(got.Path), len(want.Path))
		}
		for j := range got.Path {
			if got.Path[j] != want.Path[j] {
				t.Fatalf("item %d: paths diverge at %d", i, j)
			}
		}
		if got.ModelEpoch != e.ModelEpoch() {
			t.Errorf("item %d: epoch %d != serving epoch %d", i, got.ModelEpoch, e.ModelEpoch())
		}
		if got.NumConvolved+got.NumEstimated == 0 {
			t.Errorf("item %d: no per-query decision telemetry", i)
		}
	}
}

// TestRouteBatchHTTPMatchesSequentialRoute drives POST /route/batch
// against the real engine over real HTTP and checks every item equals
// the corresponding sequential GET /route answer — probability
// bit-equal, same path length, same epoch. Caches are disabled so both
// sides genuinely search. Run with -race this also shakes down the
// pooled scratch kernel under the server's concurrency.
func TestRouteBatchHTTPMatchesSequentialRoute(t *testing.T) {
	e := testEngine(t)
	srv := server.New(e, server.Config{RouteCache: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	qs, err := e.SampleQueries(0.4, 1.2, 6, 93)
	if err != nil {
		t.Fatal(err)
	}
	type item struct {
		src, dst int
		budget   float64
	}
	var items []item
	var parts []string
	for _, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		it := item{src: int(q.Source), dst: int(q.Dest), budget: 1.3 * optimistic}
		items = append(items, it)
		parts = append(parts, fmt.Sprintf(`{"source":%d,"dest":%d,"budget_s":%.6f}`, it.src, it.dst, it.budget))
	}
	resp, err := http.Post(ts.URL+"/route/batch", "application/json",
		strings.NewReader(`{"queries":[`+strings.Join(parts, ",")+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var batch struct {
		Results []struct {
			Found bool           `json:"found"`
			Prob  float64        `json:"prob"`
			Path  []int          `json:"path"`
			Epoch uint64         `json:"model_epoch"`
			Extra map[string]any `json:"-"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(items) {
		t.Fatalf("got %d results, want %d", len(batch.Results), len(items))
	}
	for i, it := range items {
		seq, err := http.Get(fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.6f", ts.URL, it.src, it.dst, it.budget))
		if err != nil {
			t.Fatal(err)
		}
		var sr struct {
			Found bool    `json:"found"`
			Prob  float64 `json:"prob"`
			Path  []int   `json:"path"`
			Epoch uint64  `json:"model_epoch"`
		}
		err = json.NewDecoder(seq.Body).Decode(&sr)
		seq.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		br := batch.Results[i]
		if br.Found != sr.Found || br.Prob != sr.Prob {
			t.Errorf("item %d: found/prob %v/%v != sequential %v/%v", i, br.Found, br.Prob, sr.Found, sr.Prob)
		}
		if len(br.Path) != len(sr.Path) {
			t.Errorf("item %d: path length %d != %d", i, len(br.Path), len(sr.Path))
		}
		if br.Epoch != sr.Epoch {
			t.Errorf("item %d: epoch %d != %d", i, br.Epoch, sr.Epoch)
		}
	}
}

// TestEngineRouteBatchWorkerBounds: degenerate worker counts (zero,
// negative, more workers than queries) must all answer every item.
func TestEngineRouteBatchWorkerBounds(t *testing.T) {
	e := testEngine(t)
	qs, err := e.SampleQueries(0.4, 1.0, 3, 92)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]BatchQuery, 0, len(qs))
	for _, q := range qs {
		optimistic, err := e.OptimisticTime(q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		queries = append(queries, BatchQuery{Source: q.Source, Dest: q.Dest,
			Opts: RouteOptions{Budget: 1.3 * optimistic}})
	}
	for _, workers := range []int{-1, 0, 1, 64} {
		items := e.RouteBatch(context.Background(), queries, workers)
		for i, it := range items {
			if it.Err != nil || it.Result == nil || !it.Result.Found {
				t.Fatalf("workers=%d item %d: %+v", workers, i, it)
			}
		}
	}
	if items := e.RouteBatch(context.Background(), nil, 4); len(items) != 0 {
		t.Errorf("empty batch returned %d items", len(items))
	}

	// A cancelled context fails every not-yet-started item with the
	// context error — still one item per query, all carrying the epoch.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	items := e.RouteBatch(ctx, queries, 1)
	if len(items) != len(queries) {
		t.Fatalf("cancelled batch returned %d items for %d queries", len(items), len(queries))
	}
	for i, it := range items {
		if it.Err == nil {
			t.Errorf("cancelled item %d has no error", i)
		}
		if it.Epoch != e.ModelEpoch() {
			t.Errorf("cancelled item %d: epoch %d", i, it.Epoch)
		}
	}
}

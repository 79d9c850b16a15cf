package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

type batchTestItem struct {
	Source       int     `json:"source"`
	Dest         int     `json:"dest"`
	Budget       float64 `json:"budget_s"`
	Found        bool    `json:"found"`
	Complete     bool    `json:"complete"`
	Prob         float64 `json:"prob"`
	ModelEpoch   uint64  `json:"model_epoch"`
	Cached       bool    `json:"cached"`
	TimeExpanded bool    `json:"time_expanded"`
	SliceSeq     []int   `json:"slice_seq"`
	Error        string  `json:"error,omitempty"`
}

type batchTestResponse struct {
	Results   []batchTestItem `json:"results"`
	CacheHits int             `json:"cache_hits"`
}

func postBatch(t *testing.T, h http.Handler, body string) (*httptest.ResponseRecorder, *batchTestResponse) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/route/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out batchTestResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("invalid batch JSON %q: %v", rec.Body.String(), err)
		}
	}
	return rec, &out
}

// TestRouteBatchMatchesSequentialRoute: every item of a batch answer
// must equal the response of the corresponding sequential /route call.
func TestRouteBatchMatchesSequentialRoute(t *testing.T) {
	fb := newFakeBackend(t)
	// Two servers over the same backend so the sequential reference's
	// cache never feeds the batch server.
	batchSrv := New(fb, Config{})
	seqSrv := New(fb, Config{})

	queries := []batchTestItem{
		{Source: 1, Dest: 2, Budget: 100},
		{Source: 3, Dest: 4, Budget: 55},
		{Source: 5, Dest: 1, Budget: 200},
	}
	var parts []string
	for _, q := range queries {
		parts = append(parts, fmt.Sprintf(`{"source":%d,"dest":%d,"budget_s":%g}`, q.Source, q.Dest, q.Budget))
	}
	rec, out := postBatch(t, batchSrv.Handler(), `{"queries":[`+strings.Join(parts, ",")+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status %d: %s", rec.Code, rec.Body.String())
	}
	if len(out.Results) != len(queries) {
		t.Fatalf("got %d results for %d queries", len(out.Results), len(queries))
	}
	for i, q := range queries {
		rec2, seq := get(t, seqSrv.Handler(),
			fmt.Sprintf("/route?source=%d&dest=%d&budget=%g", q.Source, q.Dest, q.Budget))
		if rec2.Code != http.StatusOK {
			t.Fatalf("sequential status %d", rec2.Code)
		}
		it := out.Results[i]
		if it.Error != "" {
			t.Fatalf("item %d: unexpected error %q", i, it.Error)
		}
		if it.Source != q.Source || it.Dest != q.Dest {
			t.Errorf("item %d: answered (%d,%d), want (%d,%d)", i, it.Source, it.Dest, q.Source, q.Dest)
		}
		if !it.Found || !it.Complete {
			t.Errorf("item %d: found/complete %v/%v", i, it.Found, it.Complete)
		}
		if seqProb := seq["prob"].(float64); it.Prob != seqProb {
			t.Errorf("item %d: prob %v != sequential %v", i, it.Prob, seqProb)
		}
		if seqEpoch := uint64(seq["model_epoch"].(float64)); it.ModelEpoch != seqEpoch {
			t.Errorf("item %d: epoch %d != sequential %d", i, it.ModelEpoch, seqEpoch)
		}
	}
}

// TestRouteBatchCacheReuse: a repeated batch is served from the route
// cache without touching the backend, and the cache is shared with
// /route in both directions.
func TestRouteBatchCacheReuse(t *testing.T) {
	fb := newFakeBackend(t)
	srv := New(fb, Config{})
	body := `{"queries":[{"source":1,"dest":2,"budget_s":100},{"source":3,"dest":4,"budget_s":60}]}`

	rec, out := postBatch(t, srv.Handler(), body)
	if rec.Code != http.StatusOK || out.CacheHits != 0 {
		t.Fatalf("first batch: status %d hits %d", rec.Code, out.CacheHits)
	}
	calls := fb.routeCalls.Load()

	rec, out = postBatch(t, srv.Handler(), body)
	if rec.Code != http.StatusOK {
		t.Fatalf("second batch status %d", rec.Code)
	}
	if out.CacheHits != 2 {
		t.Errorf("second batch cache hits = %d, want 2", out.CacheHits)
	}
	for i, it := range out.Results {
		if !it.Cached {
			t.Errorf("item %d not served from cache", i)
		}
	}
	if fb.routeCalls.Load() != calls {
		t.Errorf("cached batch still searched: %d -> %d calls", calls, fb.routeCalls.Load())
	}

	// A batch-warmed entry also serves GET /route...
	rec2, _ := get(t, srv.Handler(), "/route?source=1&dest=2&budget=100")
	if rec2.Header().Get("X-Cache") != "hit" {
		t.Error("batch-warmed entry did not serve /route")
	}
	// ...and an epoch bump invalidates batch entries like any others.
	fb.epoch.Store(2)
	_, out = postBatch(t, srv.Handler(), body)
	if out.CacheHits != 0 {
		t.Errorf("post-swap batch served %d stale hits", out.CacheHits)
	}
	for i, it := range out.Results {
		if it.ModelEpoch != 2 {
			t.Errorf("post-swap item %d carries epoch %d", i, it.ModelEpoch)
		}
	}
}

// TestRouteBatchValidation: malformed batches fail whole with a 400
// naming the offending index; oversized batches and bodies are
// rejected; GET is not allowed.
func TestRouteBatchValidation(t *testing.T) {
	fb := newFakeBackend(t)
	srv := New(fb, Config{MaxBatch: 4})
	h := srv.Handler()

	cases := []struct {
		name, body string
		wantCode   int
		wantIn     string
	}{
		{"empty", `{"queries":[]}`, http.StatusBadRequest, "empty"},
		{"bad json", `{"queries":`, http.StatusBadRequest, "invalid JSON"},
		{"unknown field", `{"queries":[{"source":1,"dest":2,"budget_s":9}],"x":1}`, http.StatusBadRequest, "invalid JSON"},
		{"vertex range", `{"queries":[{"source":1,"dest":99999,"budget_s":9}]}`, http.StatusBadRequest, "queries[0]"},
		{"bad budget", `{"queries":[{"source":1,"dest":2,"budget_s":9},{"source":1,"dest":2,"budget_s":-4}]}`, http.StatusBadRequest, "queries[1]"},
		{"too many", `{"queries":[` + strings.Repeat(`{"source":1,"dest":2,"budget_s":9},`, 4) + `{"source":1,"dest":2,"budget_s":9}]}`, http.StatusBadRequest, "exceeds limit"},
	}
	for _, tc := range cases {
		rec, _ := postBatch(t, h, tc.body)
		if rec.Code != tc.wantCode || !strings.Contains(rec.Body.String(), tc.wantIn) {
			t.Errorf("%s: status %d body %q, want %d containing %q",
				tc.name, rec.Code, rec.Body.String(), tc.wantCode, tc.wantIn)
		}
	}

	req := httptest.NewRequest(http.MethodGet, "/route/batch", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /route/batch: status %d", rec.Code)
	}

	// Oversized body → 413.
	item := `{"source":1,"dest":2,"budget_s":9}`
	huge := `{"queries":[` + strings.Repeat(item+`,`, maxBatchBytes/len(item)) + item + `]}`
	rec2, _ := postBatch(t, h, huge)
	if rec2.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d", rec2.Code)
	}

	// Negative MaxBatch unregisters the endpoint.
	off := New(fb, Config{MaxBatch: -1})
	rec3, _ := postBatch(t, off.Handler(), `{"queries":[{"source":1,"dest":2,"budget_s":9}]}`)
	if rec3.Code != http.StatusNotFound {
		t.Errorf("disabled endpoint: status %d", rec3.Code)
	}
}

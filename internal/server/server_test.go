package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/obs"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// fakeBackend is a deterministic, trivially cheap Backend: routes are
// synthesised from the query endpoints, the serving slice and its
// current epoch, so handler behaviour (parsing, caching, per-slice
// epoch invalidation, stats) can be asserted exactly and the search
// count observed. slices <= 1 models the classic time-homogeneous
// backend; with more slices each slice gets an independent epoch
// counter (bumpSlice) and answers shifted by 1000s per slice so
// cross-slice mixups are unmistakable.
type fakeBackend struct {
	g          *graph.Graph
	epoch      atomic.Uint64
	slices     int
	sliceTicks []atomic.Uint64 // extra epoch bumps per slice
	routeCalls atomic.Int64
	pairCalls  atomic.Int64
	// completeOver marks searches as cut off (Complete=false) whenever
	// the request's MaxDuration is below this threshold.
	completeOver time.Duration
	// searchDelay stalls every search by this much wall-clock time, so
	// tracing tests can manufacture a slow query deterministically.
	searchDelay time.Duration
}

func newFakeBackend(t testing.TB) *fakeBackend { return newFakeBackendSlices(t, 1) }

func newFakeBackendSlices(t testing.TB, slices int) *fakeBackend {
	t.Helper()
	cfg := netgen.DefaultConfig()
	cfg.Rows, cfg.Cols = 6, 6
	cfg.MotorwayRing = false
	cfg.DropFrac = 0
	g, err := netgen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slices < 1 {
		slices = 1
	}
	fb := &fakeBackend{g: g, slices: slices, sliceTicks: make([]atomic.Uint64, slices)}
	fb.epoch.Store(1)
	return fb
}

// distFor is the deterministic travel-time distribution of a fake
// route at the given model epoch: uniform mass on four buckets
// starting at src+dst+10 seconds, shifted 100s per epoch and 1000s
// per slice so answers from different model generations and slices
// are unmistakable.
func (f *fakeBackend) distFor(src, dst graph.VertexID, epoch uint64, slice int) *hist.Hist {
	return hist.Uniform(float64(src+dst)+10+100*float64(epoch-1)+1000*float64(slice), 5, 4)
}

func (f *fakeBackend) Graph() *graph.Graph { return f.g }

func (f *fakeBackend) ModelEpoch() uint64 { return f.epoch.Load() }

func (f *fakeBackend) NumSlices() int { return f.slices }

func (f *fakeBackend) SliceOf(depart float64) int { return traj.SliceIndex(depart, f.slices) }

func (f *fakeBackend) SliceEpoch(slice int) uint64 {
	if slice < 0 || slice >= f.slices {
		slice = 0
	}
	return f.epoch.Load() + f.sliceTicks[slice].Load()
}

func (f *fakeBackend) SliceEpochs() []uint64 {
	out := make([]uint64, f.slices)
	for i := range out {
		out[i] = f.SliceEpoch(i)
	}
	return out
}

// bumpSlice advances one slice's epoch only — the fake analogue of a
// per-slice hot swap.
func (f *fakeBackend) bumpSlice(slice int) { f.sliceTicks[slice].Add(1) }

func (f *fakeBackend) NearestVertex(lat, lon float64) graph.VertexID {
	return 0
}

// globalEpoch mirrors the engine's global generation counter: every
// per-slice bump advances it too, so it is never behind a slice epoch.
func (f *fakeBackend) globalEpoch() uint64 {
	e := f.epoch.Load()
	for i := range f.sliceTicks {
		e += f.sliceTicks[i].Load()
	}
	return e
}

// RouteCtx mirrors the engine's contract, including its span shape: a
// sampled context gets a "search" span with the same attribute names
// the real engine records, so tracing tests exercise the same tree.
func (f *fakeBackend) RouteCtx(ctx context.Context, src, dst graph.VertexID, opts routing.Options) (*routing.Result, error) {
	f.routeCalls.Add(1)
	_, sp := obs.StartSpan(ctx, "search")
	if f.searchDelay > 0 {
		time.Sleep(f.searchDelay)
	}
	slice := f.SliceOf(opts.Departure)
	epoch := f.SliceEpoch(slice)
	d := f.distFor(src, dst, epoch, slice)
	complete := f.completeOver == 0 || opts.MaxDuration >= f.completeOver
	res := &routing.Result{
		Path:         []graph.EdgeID{graph.EdgeID(src), graph.EdgeID(dst)},
		Dist:         d,
		Prob:         d.CDF(opts.Budget),
		Found:        true,
		Complete:     complete,
		Expansions:   7,
		NumConvolved: 2,
		NumEstimated: 1,
		ModelEpoch:   epoch,
		Slice:        slice,
	}
	if opts.TimeExpanded {
		// Mirror the engine: a time-expanded answer reports the slice
		// sequence of its path and carries the GLOBAL epoch, since any
		// slice's model may have shaped it.
		res.SliceSeq = []int{slice, (slice + 1) % f.slices}
		res.ModelEpoch = f.globalEpoch()
	}
	if sp != nil {
		sp.SetInt("slice", int64(res.Slice))
		sp.SetInt("expansions", int64(res.Expansions))
		sp.SetBool("found", res.Found)
		sp.End()
	}
	return res, nil
}

// RouteBatch mirrors the engine's contract: item i answers queries[i],
// all against one snapshot, each stamped with its serving slice's
// epoch.
func (f *fakeBackend) RouteBatch(ctx context.Context, queries []routing.BatchQuery, workers int) []routing.BatchItem {
	out := make([]routing.BatchItem, len(queries))
	for i, q := range queries {
		epoch := f.SliceEpoch(f.SliceOf(q.Opts.Departure))
		if q.Opts.TimeExpanded {
			epoch = f.globalEpoch()
		}
		if err := ctx.Err(); err != nil {
			out[i] = routing.BatchItem{Err: err, Epoch: epoch}
			continue
		}
		t0 := time.Now()
		ictx, isp := obs.StartSpan(ctx, "batch-item")
		isp.SetInt("index", int64(i))
		res, err := f.RouteCtx(ictx, q.Source, q.Dest, q.Opts)
		isp.SetError(err)
		isp.End()
		out[i] = routing.BatchItem{Result: res, Err: err, Epoch: epoch, Elapsed: time.Since(t0)}
	}
	return out
}

func (f *fakeBackend) AlternativeRoutes(src, dst graph.VertexID, horizon float64, maxRoutes int) ([]routing.ParetoRoute, error) {
	return []routing.ParetoRoute{
		{Path: []graph.EdgeID{0, 1}, Dist: f.distFor(src, dst, f.epoch.Load(), 0)},
	}, nil
}

func (f *fakeBackend) PairSumAt(slice int, first, second graph.EdgeID) (*hist.Hist, error) {
	f.pairCalls.Add(1)
	if f.g.Edge(first).To != f.g.Edge(second).From {
		return nil, fmt.Errorf("edges %d and %d are not adjacent", first, second)
	}
	return hist.Uniform(float64(first+second)+4+1000*float64(slice), 2, 3), nil
}

func (f *fakeBackend) OptimisticTime(src, dst graph.VertexID) (float64, error) {
	return float64(src+dst) + 10, nil
}

func (f *fakeBackend) SampleQueries(loKm, hiKm float64, n int, seed uint64) ([]netgen.Query, error) {
	qs := make([]netgen.Query, n)
	for i := range qs {
		qs[i] = netgen.Query{Source: graph.VertexID(i % f.g.NumVertices()), Dest: graph.VertexID((i + 1) % f.g.NumVertices()), DistKm: 1}
	}
	return qs, nil
}

func (f *fakeBackend) DecisionCounts() (uint64, uint64) { return 5, 3 }

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var body map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("%s: invalid JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec, body
}

func TestRouteEndpointAndCache(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{BudgetBucketSeconds: 15})
	h := s.Handler()

	rec, body := get(t, h, "/route?source=1&dest=2&budget=100")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if rec.Header().Get("X-Cache") != "miss" {
		t.Error("first request should miss")
	}
	if body["found"] != true || body["complete"] != true || body["cached"] != false {
		t.Errorf("unexpected body %v", body)
	}
	wantProb := fb.distFor(1, 2, 1, 0).CDF(100)
	if got := body["prob"].(float64); got != wantProb {
		t.Errorf("prob = %v, want %v", got, wantProb)
	}

	// Same bucket (100 and 104 with 15s buckets): served from cache,
	// with the probability recomputed exactly at the new budget.
	rec, body = get(t, h, "/route?source=1&dest=2&budget=104")
	if rec.Header().Get("X-Cache") != "hit" {
		t.Error("second request should hit")
	}
	if body["cached"] != true {
		t.Errorf("cached flag missing: %v", body)
	}
	if got, want := body["prob"].(float64), fb.distFor(1, 2, 1, 0).CDF(104); got != want {
		t.Errorf("cached prob = %v, want exact recompute %v", got, want)
	}
	if calls := fb.routeCalls.Load(); calls != 1 {
		t.Errorf("backend searched %d times, want 1", calls)
	}

	// A different bucket searches again.
	get(t, h, "/route?source=1&dest=2&budget=200")
	if calls := fb.routeCalls.Load(); calls != 2 {
		t.Errorf("backend searched %d times, want 2", calls)
	}
}

func TestRouteValidation(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	h := s.Handler()
	cases := []string{
		"/route?dest=2&budget=100",                             // missing source
		"/route?source=1&dest=2",                               // missing budget
		"/route?source=1&dest=2&budget=-5",                     // bad budget
		"/route?source=1&dest=2&budget=abc",                    // unparsable budget
		"/route?source=999999&dest=2&budget=100",               // out of range
		"/route?from=91,0&to=0,0&budget=100",                   // invalid latitude
		"/alternatives?source=1&dest=2",                        // missing horizon
		"/alternatives?source=1&dest=2&horizon=100&max=9999",   // max too large
		"/pairsum?first=0",                                     // missing second
		"/pairsum?first=0&second=999999",                       // out of range
		"/sample?n=100000",                                     // n too large
		"/sample?lo_km=5&hi_km=1",                              // inverted band
		"/route/anytime?source=1&dest=2&budget=100&limit_ms=0", // bad limit
	}
	for _, url := range cases {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %v)", url, rec.Code, body)
		}
		if body["error"] == "" {
			t.Errorf("%s: missing error message", url)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/route?source=1&dest=2&budget=100", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", rec.Code)
	}
}

func TestIncompleteResultsAreNotCached(t *testing.T) {
	fb := newFakeBackend(t)
	fb.completeOver = time.Hour // every bounded search reports cut off
	s := New(fb, Config{})
	h := s.Handler()

	_, body := get(t, h, "/route/anytime?source=1&dest=2&budget=100&limit_ms=50")
	if body["complete"] != false {
		t.Fatalf("expected incomplete result, got %v", body)
	}
	rec, _ := get(t, h, "/route/anytime?source=1&dest=2&budget=100&limit_ms=50")
	if rec.Header().Get("X-Cache") != "miss" {
		t.Error("incomplete result must not be served from cache")
	}
	if calls := fb.routeCalls.Load(); calls != 2 {
		t.Errorf("backend searched %d times, want 2", calls)
	}
}

func TestAnytimeServedFromCompleteCache(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{})
	h := s.Handler()
	get(t, h, "/route?source=1&dest=2&budget=100")
	rec, _ := get(t, h, "/route/anytime?source=1&dest=2&budget=100&limit_ms=50")
	if rec.Header().Get("X-Cache") != "hit" {
		t.Error("anytime should reuse a cached complete optimum")
	}
	if calls := fb.routeCalls.Load(); calls != 1 {
		t.Errorf("backend searched %d times, want 1", calls)
	}
}

func TestPairSumEndpoint(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{})
	h := s.Handler()
	// Find an adjacent edge pair in the fake graph.
	g := fb.g
	var first, second graph.EdgeID = graph.NoEdge, graph.NoEdge
	for e := 0; e < g.NumEdges() && second == graph.NoEdge; e++ {
		for _, nxt := range g.Out(g.Edge(graph.EdgeID(e)).To) {
			first, second = graph.EdgeID(e), nxt
			break
		}
	}
	if second == graph.NoEdge {
		t.Fatal("no adjacent pair in fake graph")
	}
	url := fmt.Sprintf("/pairsum?first=%d&second=%d", first, second)
	rec, body := get(t, h, url)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	// Computed per request: no cache field, no cache header.
	if _, ok := body["cached"]; ok || rec.Header().Get("X-Cache") != "" {
		t.Errorf("pairsum carries cache markers: body %v, X-Cache %q", body, rec.Header().Get("X-Cache"))
	}
	if _, again := get(t, h, url); fmt.Sprint(again) != fmt.Sprint(body) {
		t.Errorf("repeat pairsum answered %v, first answered %v", again, body)
	}
	if calls := fb.pairCalls.Load(); calls != 2 {
		t.Errorf("backend computed %d pair sums, want 2", calls)
	}
	// Non-adjacent pair: client error, not 500.
	rec, _ = get(t, h, "/pairsum?first=0&second=0")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("non-adjacent pair: status %d, want 400", rec.Code)
	}
}

func TestAlternativesEndpoint(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	rec, body := get(t, s.Handler(), "/alternatives?source=1&dest=2&horizon=500&max=4&budget=120")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	routes := body["routes"].([]any)
	if len(routes) != 1 {
		t.Fatalf("routes = %v", routes)
	}
	r0 := routes[0].(map[string]any)
	if r0["prob"].(float64) <= 0 {
		t.Errorf("budget given, want positive prob: %v", r0)
	}
}

func TestSampleEndpoint(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	rec, body := get(t, s.Handler(), "/sample?n=5&lo_km=0.5&hi_km=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	qs := body["queries"].([]any)
	if len(qs) != 5 {
		t.Fatalf("queries = %d, want 5", len(qs))
	}
	q0 := qs[0].(map[string]any)
	if q0["optimistic_s"].(float64) <= 0 {
		t.Errorf("missing optimistic time: %v", q0)
	}
}

func TestHealthzAndStats(t *testing.T) {
	s := New(newFakeBackend(t), Config{})
	h := s.Handler()
	rec, body := get(t, h, "/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", rec.Code, body)
	}
	if body["vertices"].(float64) <= 0 || body["edges"].(float64) <= 0 {
		t.Error("healthz should report graph size")
	}

	get(t, h, "/route?source=1&dest=2&budget=100")
	get(t, h, "/route?source=1&dest=2&budget=100")
	get(t, h, "/route?source=1&dest=2") // validation error

	_, body = get(t, h, "/stats")
	eps := body["endpoints"].(map[string]any)
	route := eps["/route"].(map[string]any)
	if route["requests"].(float64) != 3 || route["errors"].(float64) != 1 {
		t.Errorf("route endpoint stats = %v", route)
	}
	rc := body["route_cache"].(map[string]any)
	if rc["hits"].(float64) != 1 || rc["misses"].(float64) != 1 {
		t.Errorf("route cache stats = %v", rc)
	}
	if body["convolved_total"].(float64) != 5 || body["estimated_total"].(float64) != 3 {
		t.Errorf("decision totals = %v", body)
	}
}

func TestDisabledCache(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{RouteCache: -1})
	h := s.Handler()
	get(t, h, "/route?source=1&dest=2&budget=100")
	get(t, h, "/route?source=1&dest=2&budget=100")
	if calls := fb.routeCalls.Load(); calls != 2 {
		t.Errorf("disabled cache: backend searched %d times, want 2", calls)
	}
}

// TestConcurrentHandlers hammers the full handler stack from many
// goroutines; combined with -race this is the serving-layer concurrency
// gate. Every response must equal the deterministic serial answer.
func TestConcurrentHandlers(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{})
	h := s.Handler()
	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				src := graph.VertexID(1 + (w+i)%4)
				dst := graph.VertexID(6 + i%3)
				budget := 100.0 + float64(i%5)
				req := httptest.NewRequest(http.MethodGet,
					fmt.Sprintf("/route?source=%d&dest=%d&budget=%g", src, dst, budget), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var body struct {
					Prob   float64 `json:"prob"`
					Found  bool    `json:"found"`
					Cached bool    `json:"cached"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errs <- err
					return
				}
				want := fb.distFor(src, dst, 1, 0).CDF(budget)
				if !body.Found || body.Prob != want {
					errs <- fmt.Errorf("route(%d,%d,%g) = %v, want prob %v", src, dst, budget, body, want)
					return
				}
				if i%10 == 0 {
					get(t, h, "/stats")
					get(t, h, "/healthz")
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// ingestTargetStub adapts a fakeBackend into an ingest.Target whose
// SwapSliceModel just bumps the backend epoch. Drift stays disabled in the
// tests that use it, so the nil knowledge base is never touched.
type ingestTargetStub struct {
	fb *fakeBackend
}

func (t *ingestTargetStub) Graph() *graph.Graph                          { return t.fb.g }
func (t *ingestTargetStub) NumSlices() int                               { return t.fb.NumSlices() }
func (t *ingestTargetStub) SliceKnowledgeBase(int) *hybrid.KnowledgeBase { return nil }
func (t *ingestTargetStub) ModelEpoch() uint64                           { return t.fb.epoch.Load() }
func (t *ingestTargetStub) SwapSliceModel(slice int, m *hybrid.Model, obs *traj.ObservationStore) (uint64, error) {
	return t.fb.epoch.Add(1), nil
}

func testIngestor(fb *fakeBackend) *ingest.Ingestor {
	return ingest.New(&ingestTargetStub{fb: fb}, ingest.Config{
		Hybrid:                 hybrid.Config{Width: 2, MinPairObs: 4},
		Drift:                  ingest.DriftConfig{Window: -1},
		MinRebuildTrajectories: 1 << 30, // never rebuild in handler tests
	}, nil)
}

// adjacentPair returns an adjacent edge pair of g.
func adjacentPair(t *testing.T, g *graph.Graph) (graph.EdgeID, graph.EdgeID) {
	t.Helper()
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		for _, nxt := range g.Out(g.Edge(id).To) {
			return id, nxt
		}
	}
	t.Fatal("no adjacent pair in graph")
	return graph.NoEdge, graph.NoEdge
}

func postJSON(t *testing.T, h http.Handler, url, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("%s: invalid JSON %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec, out
}

func TestIngestEndpoint(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{Ingestor: testIngestor(fb), MaxIngestBytes: 4096})
	h := s.Handler()

	first, second := adjacentPair(t, fb.g)
	valid := fmt.Sprintf(`{"edges":[%d,%d],"times":[10,12]}`, first, second)
	invalid := `{"edges":[0],"times":[-3]}`

	// GET is the wrong method for the write path.
	rec, _ := get(t, h, "/ingest")
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest status %d, want 405", rec.Code)
	}

	rec, body := postJSON(t, h, "/ingest", `{"trajectories":[`+valid+`,`+invalid+`]}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if body["accepted"].(float64) != 1 || body["rejected"].(float64) != 1 {
		t.Errorf("accepted/rejected = %v", body)
	}
	if body["model_epoch"].(float64) != 1 {
		t.Errorf("model_epoch = %v, want 1", body["model_epoch"])
	}

	// Unknown fields are rejected, not silently dropped.
	rec, body = postJSON(t, h, "/ingest", `{"trajectoriez":[`+valid+`]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400 (%v)", rec.Code, body)
	}
	// Empty batches are rejected.
	rec, _ = postJSON(t, h, "/ingest", `{"trajectories":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400", rec.Code)
	}
	// Oversized bodies fail fast with 413.
	big := `{"trajectories":[` + valid
	for len(big) < 5000 {
		big += `,` + valid
	}
	big += `]}`
	rec, _ = postJSON(t, h, "/ingest", big)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", rec.Code)
	}

	// /stats surfaces the write path's counters.
	_, body = get(t, h, "/stats")
	ing := body["ingest"].(map[string]any)
	if ing["accepted"].(float64) != 1 || ing["rejected"].(float64) != 1 {
		t.Errorf("stats ingest block = %v", ing)
	}

	// Without an ingestor the endpoint does not exist.
	s2 := New(newFakeBackend(t), Config{})
	req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(`{"trajectories":[`+valid+`]}`))
	rec = httptest.NewRecorder()
	s2.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Errorf("no ingestor: status %d, want 404", rec.Code)
	}
}

// TestCacheInvalidationAcrossHotSwap is the hot-swap correctness gate
// (run under -race): concurrent routers keep querying while the model
// epoch is bumped mid-flight, and no response claiming the post-swap
// epoch may ever carry a pre-swap answer — in particular not from the
// route cache, whose pre-swap entries must all be invalidated.
func TestCacheInvalidationAcrossHotSwap(t *testing.T) {
	fb := newFakeBackend(t)
	s := New(fb, Config{BudgetBucketSeconds: 15})
	h := s.Handler()

	type q struct {
		src, dst graph.VertexID
		budget   float64
	}
	queries := []q{{1, 2, 100}, {2, 3, 120}, {3, 4, 150}, {1, 5, 90}}
	urlFor := func(k q) string {
		return fmt.Sprintf("/route?source=%d&dest=%d&budget=%g", k.src, k.dst, k.budget)
	}
	// Warm every key at epoch 1 so pre-swap entries exist to go stale.
	for _, k := range queries {
		rec, _ := get(t, h, urlFor(k))
		if rec.Code != http.StatusOK {
			t.Fatalf("warmup failed: %d", rec.Code)
		}
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := queries[(w+i)%len(queries)]
				req := httptest.NewRequest(http.MethodGet, urlFor(k), nil)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					errs <- fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
					return
				}
				var body struct {
					Prob       float64 `json:"prob"`
					ModelEpoch uint64  `json:"model_epoch"`
					Cached     bool    `json:"cached"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
					errs <- err
					return
				}
				if body.ModelEpoch != 1 && body.ModelEpoch != 2 {
					errs <- fmt.Errorf("unexpected epoch %d", body.ModelEpoch)
					return
				}
				// The invariant: an answer stamped with epoch E must be
				// epoch E's answer, cached or not.
				want := fb.distFor(k.src, k.dst, body.ModelEpoch, 0).CDF(k.budget)
				if body.Prob != want {
					errs <- fmt.Errorf("epoch %d (cached=%v) prob %v, want %v",
						body.ModelEpoch, body.Cached, body.Prob, want)
					return
				}
			}
		}(w)
	}

	time.Sleep(10 * time.Millisecond)
	fb.epoch.Store(2) // the hot swap
	time.Sleep(20 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After the swap, the same URLs must never resurrect epoch-1 cache
	// entries: every answer now carries epoch 2's distribution.
	for _, k := range queries {
		rec, _ := get(t, h, urlFor(k))
		var body struct {
			Prob       float64 `json:"prob"`
			ModelEpoch uint64  `json:"model_epoch"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if body.ModelEpoch != 2 {
			t.Errorf("%s: post-swap epoch %d, want 2", urlFor(k), body.ModelEpoch)
		}
		if want := fb.distFor(k.src, k.dst, 2, 0).CDF(k.budget); body.Prob != want {
			t.Errorf("%s: post-swap prob %v, want %v", urlFor(k), body.Prob, want)
		}
	}
	if inv := s.routes[0].Stats().Invalidations; inv == 0 {
		t.Error("swap should have invalidated pre-swap cache entries")
	}
	if epoch := s.routes[0].Stats().Epoch; epoch != 2 {
		t.Errorf("route cache epoch = %d, want 2", epoch)
	}
}

// TestRouteDepartSlices: the depart parameter must select the
// time-of-day slice — separate cost models, separate caches, and
// per-slice epoch invalidation that leaves the other slices' caches
// warm.
func TestRouteDepartSlices(t *testing.T) {
	fb := newFakeBackendSlices(t, 4)
	s := New(fb, Config{BudgetBucketSeconds: 15})
	h := s.Handler()

	// Slice 0 (depart 0) and slice 1 (depart 30000, inside
	// [21600, 43200)) answer with distributions 1000s apart; a 100s
	// budget separates them sharply.
	_, body := get(t, h, "/route?source=1&dest=2&budget=100&depart=0")
	if want := fb.distFor(1, 2, 1, 0).CDF(100); body["prob"].(float64) != want {
		t.Errorf("slice 0 prob %v, want %v", body["prob"], want)
	}
	_, body = get(t, h, "/route?source=1&dest=2&budget=100&depart=30000")
	if body["slice"] != float64(1) {
		t.Errorf("depart 30000 served by slice %v, want 1", body["slice"])
	}
	if want := fb.distFor(1, 2, 1, 1).CDF(100); body["prob"].(float64) != want {
		t.Errorf("slice 1 prob %v, want %v", body["prob"], want)
	}
	if calls := fb.routeCalls.Load(); calls != 2 {
		t.Fatalf("backend searched %d times, want 2 (one per slice)", calls)
	}

	// Same queries again: each slice hits its own cache.
	for _, depart := range []string{"0", "30000"} {
		rec, _ := get(t, h, "/route?source=1&dest=2&budget=100&depart="+depart)
		if rec.Header().Get("X-Cache") != "hit" {
			t.Errorf("depart %s: repeat should hit its slice cache", depart)
		}
	}
	if calls := fb.routeCalls.Load(); calls != 2 {
		t.Fatalf("cached repeats searched the backend: %d calls", calls)
	}

	// A hot swap of slice 1 invalidates ONLY slice 1's cache.
	fb.bumpSlice(1)
	rec, body := get(t, h, "/route?source=1&dest=2&budget=100&depart=30000")
	if rec.Header().Get("X-Cache") != "miss" {
		t.Error("slice 1 request after its swap should miss")
	}
	if body["model_epoch"] != float64(2) {
		t.Errorf("post-swap slice 1 epoch %v, want 2", body["model_epoch"])
	}
	rec, _ = get(t, h, "/route?source=1&dest=2&budget=100&depart=0")
	if rec.Header().Get("X-Cache") != "hit" {
		t.Error("slice 0 cache must survive a slice 1 swap")
	}
	if calls := fb.routeCalls.Load(); calls != 3 {
		t.Fatalf("backend calls = %d, want 3", calls)
	}

	// Invalid departures are rejected.
	for _, bad := range []string{"-5", "abc", "NaN"} {
		rec, _ := get(t, h, "/route?source=1&dest=2&budget=100&depart="+bad)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("depart=%s: status %d, want 400", bad, rec.Code)
		}
	}

	// /healthz reports the slice count and per-slice epochs.
	_, health := get(t, h, "/healthz")
	if health["slices"] != float64(4) {
		t.Errorf("healthz slices = %v, want 4", health["slices"])
	}
	epochs := health["slice_epochs"].([]any)
	if len(epochs) != 4 || epochs[1] != float64(2) || epochs[0] != float64(1) {
		t.Errorf("healthz slice_epochs = %v, want [1 2 1 1]", epochs)
	}

	// /stats carries the same epochs plus per-slice cache stats.
	_, stats := get(t, h, "/stats")
	if stats["slices"] != float64(4) {
		t.Errorf("stats slices = %v", stats["slices"])
	}
	if rcs, ok := stats["route_cache_slices"].([]any); !ok || len(rcs) != 4 {
		t.Errorf("stats route_cache_slices = %v", stats["route_cache_slices"])
	}
}

// TestBatchDepartSlices: one batch mixing departures routes each item
// through its own slice (model + cache), interoperating with /route's
// per-slice cache.
func TestBatchDepartSlices(t *testing.T) {
	fb := newFakeBackendSlices(t, 4)
	s := New(fb, Config{BudgetBucketSeconds: 15})
	h := s.Handler()

	// Warm slice 1's cache through /route.
	get(t, h, "/route?source=1&dest=2&budget=100&depart=30000")
	warmCalls := fb.routeCalls.Load()

	body := `{"queries":[
		{"source":1,"dest":2,"budget_s":100},
		{"source":1,"dest":2,"budget_s":100,"depart_s":30000},
		{"source":3,"dest":4,"budget_s":100,"depart_s":50000}
	]}`
	req := httptest.NewRequest(http.MethodPost, "/route/batch", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []struct {
			Slice  int     `json:"slice"`
			Prob   float64 `json:"prob"`
			Cached bool    `json:"cached"`
		} `json:"results"`
		CacheHits int `json:"cache_hits"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("%d results", len(resp.Results))
	}
	wantSlices := []int{0, 1, 2}
	for i, r := range resp.Results {
		if r.Slice != wantSlices[i] {
			t.Errorf("item %d slice %d, want %d", i, r.Slice, wantSlices[i])
		}
	}
	if !resp.Results[1].Cached || resp.CacheHits != 1 {
		t.Errorf("item 1 should reuse /route's slice 1 entry (cached=%v hits=%d)",
			resp.Results[1].Cached, resp.CacheHits)
	}
	if want := fb.distFor(1, 2, 1, 1).CDF(100); resp.Results[1].Prob != want {
		t.Errorf("item 1 prob %v, want slice 1 answer %v", resp.Results[1].Prob, want)
	}
	if want := fb.distFor(3, 4, 1, 2).CDF(100); resp.Results[2].Prob != want {
		t.Errorf("item 2 prob %v, want slice 2 answer %v", resp.Results[2].Prob, want)
	}
	// Two misses were searched (items 0 and 2).
	if calls := fb.routeCalls.Load(); calls != warmCalls+2 {
		t.Errorf("backend calls %d, want %d", calls, warmCalls+2)
	}
}

// TestPairSumDepart: pair sums select and cache per slice too.
func TestPairSumDepart(t *testing.T) {
	fb := newFakeBackendSlices(t, 4)
	s := New(fb, Config{})
	h := s.Handler()
	first, second := adjacentPair(t, fb.g)

	url0 := fmt.Sprintf("/pairsum?first=%d&second=%d", first, second)
	url1 := fmt.Sprintf("/pairsum?first=%d&second=%d&depart=30000", first, second)
	_, b0 := get(t, h, url0)
	_, b1 := get(t, h, url1)
	if b1["mean_s"].(float64) != b0["mean_s"].(float64)+1000 {
		t.Errorf("slice 1 pair mean %v, want %v+1000", b1["mean_s"], b0["mean_s"])
	}
	if b1["slice"] != float64(1) {
		t.Errorf("pairsum slice = %v, want 1", b1["slice"])
	}
}

// TestSampleDepartEcho: /sample stamps the requested departure (and
// its slice) on every returned query.
func TestSampleDepartEcho(t *testing.T) {
	fb := newFakeBackendSlices(t, 4)
	s := New(fb, Config{})
	h := s.Handler()
	rec, _ := get(t, h, "/sample?n=3&depart=50000")
	var resp struct {
		Queries []struct {
			Depart float64 `json:"depart_s"`
			Slice  int     `json:"slice"`
		} `json:"queries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Queries) == 0 {
		t.Fatal("no queries")
	}
	for i, q := range resp.Queries {
		if q.Depart != 50000 || q.Slice != 2 {
			t.Errorf("query %d: depart %v slice %d, want 50000 slice 2", i, q.Depart, q.Slice)
		}
	}
}

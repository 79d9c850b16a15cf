package stochroute

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stochroute/internal/ingest"
	"stochroute/internal/obs"
	"stochroute/internal/replay"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// TestOnlineIngestDriftRebuildSwapE2E drives the whole online-learning
// loop over real HTTP: a service on a synthetic world receives a
// stream of shifted-distribution trajectories through POST /ingest
// (via the cmd/replay streaming client), the drift monitor fires, a
// background rebuild retrains the model, the epoch-tagged hot swap
// publishes it, /stats reports the new epoch, and post-swap /route
// answers reflect the shifted distributions — all while concurrent
// queries keep succeeding.
func TestOnlineIngestDriftRebuildSwapE2E(t *testing.T) {
	// A dedicated small engine: the test swaps its model, so it must
	// not share the package fixture.
	cfg := DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 10, 10
	cfg.Network.CellMeters = 130
	cfg.Walk.NumTrajectories = 1200
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 300, 80
	cfg.Hybrid.MinPairObs = 8
	cfg.Hybrid.Estimator.Train.Epochs = 12
	cfg.Hybrid.PrefixRows = 0
	eng, err := BuildEngine(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	// The drifted world: identical structure (same graph, same seed,
	// same dependence flags) but congestion multipliers doubled —
	// every edge's travel-time distribution shifts far beyond the
	// drift threshold.
	wcfg := cfg.World
	wcfg.ModeFactors = scaleFactors(wcfg.ModeFactors, 2)
	scaled := make(map[RoadCategory][]float64, len(wcfg.CategoryFactors))
	for cat, f := range wcfg.CategoryFactors {
		scaled[cat] = scaleFactors(f, 2)
	}
	wcfg.CategoryFactors = scaled
	shiftedWorld, err := traj.NewWorld(eng.Graph(), wcfg)
	if err != nil {
		t.Fatal(err)
	}
	shiftTrs, err := traj.GenerateTrajectories(shiftedWorld, traj.WalkConfig{
		NumTrajectories: 900, MinEdges: 4, MaxEdges: 14, Seed: 77,
		RouteFraction: 0.5, NumRoutes: 300, RouteJitter: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The full observability wiring, exactly as cmd/serve assembles it:
	// one registry shared by the engine's search telemetry, the
	// ingestor's drift/swap series and the server's request metrics.
	reg := obs.NewRegistry()
	eng.SetSearchMetrics(obs.NewSearchMetrics(reg, eng.NumSlices()))

	retrain := cfg.Hybrid
	retrain.MinPairObs = 6
	retrain.TrainPairs, retrain.TestPairs = 200, 50
	ing := ingest.New(eng, ingest.Config{
		Hybrid: retrain,
		Drift: ingest.DriftConfig{
			Window:     250,
			MinEdgeObs: 6,
		},
		MinRebuildTrajectories: 300,
		Metrics:                reg,
	}, io.Discard)
	// A rebuild still training after the test would allocate inside a
	// later test's allocation count.
	defer ing.WaitRebuilds()

	srv := server.New(eng, server.Config{Ingestor: ing, Metrics: reg})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Pick a serving query and record the pre-swap answer, twice so
	// the second response is a cache hit that a correct swap must
	// invalidate.
	qs, err := eng.SampleQueries(0.5, 1.2, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimistic, err := eng.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	routeURL := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f", ts.URL, q.Source, q.Dest, 1.6*optimistic)
	pre := getRoute(t, routeURL)
	if pre.ModelEpoch != 1 || !pre.Found {
		t.Fatalf("pre-swap route = %+v, want found at epoch 1", pre)
	}
	if cached := getRoute(t, routeURL); !cached.Cached || cached.ModelEpoch != 1 {
		t.Fatalf("second pre-swap request should be an epoch-1 cache hit: %+v", cached)
	}

	// Concurrent read traffic for the whole run: every response must
	// succeed regardless of ingestion, drift checks and the swap.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	qerrs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := &http.Client{Timeout: 30 * time.Second}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := qs[(w+i)%len(qs)]
				opt, err := eng.OptimisticTime(k.Source, k.Dest)
				if err != nil {
					continue
				}
				url := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f", ts.URL, k.Source, k.Dest, 1.6*opt)
				resp, err := client.Get(url)
				if err != nil {
					qerrs <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					qerrs <- fmt.Errorf("concurrent /route status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}

	// Stream the drifted trajectories through POST /ingest with the
	// cmd/replay client.
	rep, err := replay.Stream(context.Background(), shiftTrs, replay.Options{
		BaseURL: ts.URL,
		Batch:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != len(shiftTrs) || rep.Rejected != 0 {
		t.Fatalf("replay accepted %d / rejected %d of %d", rep.Accepted, rep.Rejected, len(shiftTrs))
	}

	// The rebuild runs in the background: watch /stats until the model
	// epoch advances, wait out the rebuild chain, then read every view of
	// the quiet server.
	waitFor(t, 120*time.Second, "the model epoch to advance", func() bool {
		return getStats(t, ts.URL+"/stats").ModelEpoch >= 2
	}, ing)
	st := getStats(t, ts.URL+"/stats")
	if st.Ingest == nil {
		t.Fatal("/stats has no ingest block")
	}
	if st.Ingest.DriftEvents == 0 {
		t.Errorf("drift detection never fired: %+v", st.Ingest)
	}
	if st.Ingest.Rebuilds == 0 {
		t.Errorf("no successful rebuild recorded: %+v", st.Ingest)
	}
	if st.Ingest.LastSwapUnixMS == 0 {
		t.Error("last-swap timestamp missing from /stats")
	}

	close(stop)
	wg.Wait()
	close(qerrs)
	for err := range qerrs {
		t.Error(err)
	}

	// Post-swap, the identical request must not resurrect the epoch-1
	// cache entry and must reflect the doubled travel times.
	post := getRoute(t, routeURL)
	if post.ModelEpoch < 2 {
		t.Fatalf("post-swap route still at epoch %d: %+v", post.ModelEpoch, post)
	}
	if !post.Found {
		t.Fatalf("post-swap route found nothing: %+v", post)
	}
	if post.MeanSeconds < pre.MeanSeconds*1.3 {
		t.Errorf("post-swap mean %.1fs does not reflect the 2x shift (pre-swap %.1fs)",
			post.MeanSeconds, pre.MeanSeconds)
	}

	// /healthz reports the new epoch too, and the swap cleared any
	// degraded window the drift opened.
	var health struct {
		ModelEpoch uint64 `json:"model_epoch"`
		Degraded   bool   `json:"degraded"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.ModelEpoch != st.ModelEpoch {
		t.Errorf("/healthz epoch %d != /stats epoch %d", health.ModelEpoch, st.ModelEpoch)
	}
	if health.Degraded {
		t.Error("/healthz still degraded after a successful swap")
	}

	// The /metrics exposition must move in lockstep with /stats: the
	// drift-triggered hot swap is visible as swap_total{slice="0"} ==
	// Status.Rebuilds, the slice epoch gauge equals the slice's serving
	// generation, and the engine's search telemetry recorded the query
	// traffic above.
	st = getStats(t, ts.URL+"/stats")
	samples := scrapeSamples(t, ts.URL+"/metrics")
	metric := func(name, slice string) float64 {
		t.Helper()
		for _, s := range samples {
			if s.Name == name && s.Label("slice") == slice {
				return s.Value
			}
		}
		t.Fatalf("series %s{slice=%q} absent from /metrics", name, slice)
		return 0
	}
	if got := metric("swap_total", "0"); got != float64(st.Ingest.Rebuilds) {
		t.Errorf(`swap_total{slice="0"} = %v, /stats rebuilds = %d`, got, st.Ingest.Rebuilds)
	}
	if got := metric("slice_epoch", "0"); got != float64(st.SliceEpochs[0]) {
		t.Errorf(`slice_epoch{slice="0"} = %v, /stats slice epoch = %d`, got, st.SliceEpochs[0])
	}
	if got := metric("model_epoch", ""); got != float64(st.ModelEpoch) {
		t.Errorf("model_epoch gauge = %v, /stats model epoch = %d", got, st.ModelEpoch)
	}
	if got := metric("ingest_drift_events_total", "0"); got != float64(st.Ingest.DriftEvents) {
		t.Errorf("drift events gauge = %v, /stats = %d", got, st.Ingest.DriftEvents)
	}
	if got := metric("search_expansions_count", "0"); got == 0 {
		t.Error("engine search telemetry never recorded despite route traffic")
	}
	if got := metric("degraded", ""); got != 0 {
		t.Errorf("degraded gauge = %v after successful swap", got)
	}
}

// scrapeSamples fetches and parses one /metrics exposition.
func scrapeSamples(t *testing.T, url string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d", url, resp.StatusCode)
	}
	samples, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("scrape does not parse: %v", err)
	}
	return samples
}

func scaleFactors(f []float64, by float64) []float64 {
	out := make([]float64, len(f))
	for i, x := range f {
		out[i] = x * by
	}
	return out
}

type routeView struct {
	Found       bool    `json:"found"`
	Complete    bool    `json:"complete"`
	Prob        float64 `json:"prob"`
	MeanSeconds float64 `json:"mean_s"`
	ModelEpoch  uint64  `json:"model_epoch"`
	Cached      bool    `json:"cached"`
}

type statsView struct {
	ModelEpoch  uint64         `json:"model_epoch"`
	SliceEpochs []uint64       `json:"slice_epochs"`
	Ingest      *ingest.Status `json:"ingest"`
}

func getRoute(t *testing.T, url string) routeView {
	t.Helper()
	var v routeView
	getJSON(t, url, &v)
	return v
}

func getStats(t *testing.T, url string) statsView {
	t.Helper()
	var v statsView
	getJSON(t, url, &v)
	return v
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("%s: %v in %q", url, err, body)
	}
}

package stochroute

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"stochroute/internal/ingest"
	"stochroute/internal/replay"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// TestTemporalSliceDriftE2E drives the time-sliced online-learning
// loop over real HTTP: a 4-slice service receives a rush-hour stream —
// doubled congestion, every trip departing in the peak slice — through
// POST /ingest. Drift must fire in exactly the congested slice, only
// that slice's epoch may advance, post-swap peak-hour /route means
// must reflect the congestion while off-peak answers stay bit-for-bit
// identical, and concurrent queries across all slices keep succeeding
// throughout.
func TestTemporalSliceDriftE2E(t *testing.T) {
	const K, peak = 4, 1
	peakDepart := traj.SliceMid(peak, K)
	offDepart := traj.SliceMid(0, K)

	// A dedicated small 4-slice engine: uniform departures, one model
	// per slice, deliberately light training.
	cfg := DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 10, 10
	cfg.Network.CellMeters = 130
	cfg.Walk.NumTrajectories = 2400
	cfg.Walk.Slices = K
	cfg.Hybrid.Slices = K
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 250, 60
	cfg.Hybrid.MinPairObs = 6
	cfg.Hybrid.Estimator.Train.Epochs = 10
	cfg.Hybrid.PrefixRows = 0
	eng, err := BuildEngine(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if eng.NumSlices() != K {
		t.Fatalf("engine has %d slices, want %d", eng.NumSlices(), K)
	}

	// The rush-hour stream: identical world structure but congestion
	// multipliers doubled, every trip departing in the peak slice.
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
	peakWeights := make([]float64, K)
	peakWeights[peak] = 1
	peakTrs, err := traj.GenerateTrajectories(shiftedWorld, traj.WalkConfig{
		NumTrajectories: 900, MinEdges: 4, MaxEdges: 14, Seed: 77,
		RouteFraction: 0.5, NumRoutes: 300, RouteJitter: 0.25,
		Slices: K, SliceWeights: peakWeights,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range peakTrs {
		if got := peakTrs[i].Slice(K); got != peak {
			t.Fatalf("stream trajectory %d departs in slice %d, want %d", i, got, peak)
		}
	}

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
	}, io.Discard)
	if ing.NumSlices() != K {
		t.Fatalf("ingestor has %d slices", ing.NumSlices())
	}

	srv := server.New(eng, server.Config{Ingestor: ing})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Record pre-swap answers for the same endpoints in the peak and an
	// off-peak slice, twice each so the second response is a per-slice
	// cache hit.
	qs, err := eng.SampleQueries(0.5, 1.2, 5, 21)
	if err != nil {
		t.Fatal(err)
	}
	q := qs[0]
	optimistic, err := eng.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.6 * optimistic
	peakURL := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f&depart=%.0f", ts.URL, q.Source, q.Dest, budget, peakDepart)
	offURL := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f&depart=%.0f", ts.URL, q.Source, q.Dest, budget, offDepart)
	prePeak := getRoute(t, peakURL)
	preOff := getRoute(t, offURL)
	if !prePeak.Found || prePeak.ModelEpoch != 1 || !preOff.Found || preOff.ModelEpoch != 1 {
		t.Fatalf("pre-swap routes not found at epoch 1: peak %+v off %+v", prePeak, preOff)
	}
	if cached := getRoute(t, peakURL); !cached.Cached {
		t.Fatalf("second pre-swap peak request should be a cache hit: %+v", cached)
	}

	// Concurrent read traffic across all slices for the whole run.
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
				depart := traj.SliceMid(i%K, K)
				url := fmt.Sprintf("%s/route?source=%d&dest=%d&budget=%.2f&depart=%.0f",
					ts.URL, k.Source, k.Dest, 1.6*opt, depart)
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

	// Stream the rush hour through POST /ingest with the cmd/replay
	// client (departures travel on the wire).
	rep, err := replay.Stream(context.Background(), peakTrs, replay.Options{
		BaseURL: ts.URL,
		Batch:   50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accepted != len(peakTrs) || rep.Rejected != 0 {
		t.Fatalf("replay accepted %d / rejected %d of %d", rep.Accepted, rep.Rejected, len(peakTrs))
	}

	// The rebuild runs in the background: watch /stats until the peak
	// slice's epoch advances, wait out the rebuild chain, then read every
	// view of the quiet server.
	waitFor(t, 120*time.Second, "the peak slice's epoch to advance", func() bool {
		st := getSliceStats(t, ts.URL+"/stats")
		return len(st.SliceEpochs) == K && st.SliceEpochs[peak] >= 2
	}, ing)
	close(stop)
	wg.Wait()
	close(qerrs)
	for err := range qerrs {
		t.Error(err)
	}
	st := getSliceStats(t, ts.URL+"/stats")

	// Drift fired in exactly the congested slice; only its epoch moved.
	if st.Ingest == nil || len(st.Ingest.Slices) != K {
		t.Fatalf("/stats ingest slices missing: %+v", st.Ingest)
	}
	for s := 0; s < K; s++ {
		if s == peak {
			if st.Ingest.Slices[s].DriftEvents == 0 || st.Ingest.Slices[s].Rebuilds == 0 {
				t.Errorf("peak slice %d never drifted/rebuilt: %+v", s, st.Ingest.Slices[s])
			}
			continue
		}
		if st.Ingest.Slices[s].DriftEvents != 0 || st.Ingest.Slices[s].Rebuilds != 0 {
			t.Errorf("quiet slice %d fired: %+v", s, st.Ingest.Slices[s])
		}
		if st.SliceEpochs[s] != 1 {
			t.Errorf("quiet slice %d epoch = %d, want 1", s, st.SliceEpochs[s])
		}
	}

	// Post-swap: the peak-hour answer must not resurrect the pre-swap
	// cache entry and must reflect the doubled travel times...
	postPeak := getRoute(t, peakURL)
	if postPeak.ModelEpoch < 2 || !postPeak.Found {
		t.Fatalf("post-swap peak route: %+v", postPeak)
	}
	if postPeak.MeanSeconds < prePeak.MeanSeconds*1.3 {
		t.Errorf("post-swap peak mean %.1fs does not reflect the 2x shift (pre-swap %.1fs)",
			postPeak.MeanSeconds, prePeak.MeanSeconds)
	}
	// ...while the off-peak slice's model was never touched: identical
	// answer, still at epoch 1.
	postOff := getRoute(t, offURL)
	if postOff.ModelEpoch != 1 {
		t.Errorf("off-peak epoch moved to %d", postOff.ModelEpoch)
	}
	if postOff.MeanSeconds != preOff.MeanSeconds || postOff.Prob != preOff.Prob {
		t.Errorf("off-peak answer changed: pre (%.3f, %.1fs) post (%.3f, %.1fs)",
			preOff.Prob, preOff.MeanSeconds, postOff.Prob, postOff.MeanSeconds)
	}

	// /healthz agrees on the per-slice epochs.
	var health struct {
		Slices      int      `json:"slices"`
		SliceEpochs []uint64 `json:"slice_epochs"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Slices != K || len(health.SliceEpochs) != K {
		t.Fatalf("/healthz slices = %+v", health)
	}
	if health.SliceEpochs[peak] != st.SliceEpochs[peak] {
		t.Errorf("/healthz peak epoch %d != /stats %d", health.SliceEpochs[peak], st.SliceEpochs[peak])
	}
}

type sliceStatsView struct {
	ModelEpoch  uint64         `json:"model_epoch"`
	Slices      int            `json:"slices"`
	SliceEpochs []uint64       `json:"slice_epochs"`
	Ingest      *ingest.Status `json:"ingest"`
}

func getSliceStats(t *testing.T, url string) sliceStatsView {
	t.Helper()
	var v sliceStatsView
	getJSON(t, url, &v)
	return v
}

package replay

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// engine is the smallest serving engine /ingest needs: a two-slice
// graph for the ingestor to validate and bucket against, an epoch for
// the acknowledgement, and a swap that keeps what each slice's rebuild
// trained on. /ingest calls no other Backend method.
type engine struct {
	server.Backend
	g *graph.Graph

	mu     sync.Mutex
	epoch  uint64
	stores map[int]*traj.ObservationStore
	models map[int]*hybrid.Model
}

func (e *engine) Graph() *graph.Graph                          { return e.g }
func (e *engine) NumSlices() int                               { return 2 }
func (e *engine) SliceKnowledgeBase(int) *hybrid.KnowledgeBase { return nil } // drift is off

func (e *engine) ModelEpoch() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.epoch
}

func (e *engine) SwapSliceModel(slice int, m *hybrid.Model, obs *traj.ObservationStore) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stores[slice], e.models[slice] = obs, m
	e.epoch++
	return e.epoch, nil
}

func modelBytes(t *testing.T, m *hybrid.Model) []byte {
	t.Helper()
	set, err := hybrid.NewModelSet([]*hybrid.Model{m})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := hybrid.WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamFoldsWhatItSends streams a seeded trajectory set through
// Stream into a real server with an ingestor, half of it departing at
// midnight (a depart the wire omits) and half at scattered times of the
// second slice. The trips on the wire must equal the ones sent, field
// by field, and every one must be accepted. What each slice folded must
// be the trips sent to it, in the order sent: each slice rebuilds once,
// on its last trip, and with a prefix sample large enough to hold every
// trip the rebuild trains on the slice's whole stream, so its store
// must equal one Collect of those trips and its model must serialise to
// the bytes of training on them directly.
func TestStreamFoldsWhatItSends(t *testing.T) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 8, 8
	ncfg.CellMeters = 150
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	sent, err := traj.GenerateTrajectories(world, traj.WalkConfig{NumTrajectories: n, MinEdges: 4, MaxEdges: 12, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(3)
	var bySlice [2][]traj.Trajectory
	for i := range sent {
		sent[i].Departure = 0
		if i%2 == 1 {
			sent[i].Departure = traj.SliceStart(1, 2) + r.Float64()*traj.SliceDuration(2)
		}
		s := sent[i].Slice(2)
		bySlice[s] = append(bySlice[s], sent[i])
	}
	if len(bySlice[0]) != n/2 || len(bySlice[1]) != n/2 {
		t.Fatalf("slices hold %d and %d trips, want %d each", len(bySlice[0]), len(bySlice[1]), n/2)
	}

	hcfg := hybrid.DefaultConfig()
	hcfg.Width = wcfg.BucketWidth
	hcfg.MinPairObs = 6
	hcfg.TrainPairs, hcfg.TestPairs = 120, 30
	hcfg.Estimator.Train.Epochs = 6
	hcfg.PrefixRows = n
	eng := &engine{g: g, epoch: 1, stores: map[int]*traj.ObservationStore{}, models: map[int]*hybrid.Model{}}
	ing := ingest.New(eng, ingest.Config{
		Hybrid:                 hcfg,
		Drift:                  ingest.DriftConfig{Window: -1, RebuildEvery: n / 2},
		MinRebuildTrajectories: 1,
	}, nil)
	t.Cleanup(ing.WaitRebuilds)
	// What reached the server, decoded by encoding/json on the way in:
	// the wire holds every field of every trip, and FuzzScanIngest holds
	// the server's walk of it to that same decode.
	var (
		wireMu sync.Mutex
		onWire []traj.Trajectory
	)
	h := server.New(eng, server.Config{Ingestor: ing}).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		var req struct {
			Trajectories []struct {
				Edges  []graph.EdgeID `json:"edges"`
				Times  []float64      `json:"times"`
				Depart float64        `json:"depart"`
			} `json:"trajectories"`
		}
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		if err != nil {
			t.Errorf("body as posted: %v", err)
		}
		wireMu.Lock()
		for _, tr := range req.Trajectories {
			onWire = append(onWire, traj.Trajectory{Edges: tr.Edges, Times: tr.Times, Departure: tr.Depart})
		}
		wireMu.Unlock()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	rep, err := Stream(context.Background(), sent, Options{BaseURL: ts.URL, Batch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Sent != n || rep.Accepted != rep.Sent || rep.Rejected != 0 || rep.Batches != (n+63)/64 {
		t.Fatalf("report %+v: want all %d trips accepted in %d batches", rep, n, (n+63)/64)
	}
	wireMu.Lock()
	defer wireMu.Unlock()
	if !reflect.DeepEqual(onWire, sent) {
		t.Fatal("the trips on the wire differ from the ones sent")
	}
	ing.WaitRebuilds()
	st := ing.Status()
	if st.Rebuilds != 2 || st.RebuildErrors != 0 {
		t.Fatalf("%d rebuilds, %d failed; want one per slice", st.Rebuilds, st.RebuildErrors)
	}
	for s, trips := range bySlice {
		if got := st.Slices[s].Trajectories; got != len(trips) {
			t.Errorf("slice %d holds %d trips, want %d", s, got, len(trips))
		}
		want := traj.NewObservationStore(g, hcfg.Width)
		want.Collect(trips)
		if !reflect.DeepEqual(eng.stores[s], want) {
			t.Errorf("slice %d: the folded store is not one Collect of the trips sent to it", s)
		}
		kb, err := hybrid.BuildKnowledgeBase(g, want, hcfg.Width, hcfg.MinPairObs)
		if err != nil {
			t.Fatal(err)
		}
		model, _, err := hybrid.Train(kb, want, trips, nil, hcfg)
		if err != nil {
			t.Fatal(err)
		}
		if eng.models[s] == nil || !bytes.Equal(modelBytes(t, eng.models[s]), modelBytes(t, model)) {
			t.Errorf("slice %d: the swapped model differs from training on the trips sent to it", s)
		}
	}
}

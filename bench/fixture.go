package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http/httptest"
	"time"

	"stochroute"
	"stochroute/internal/gateway"
	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/server"
	"stochroute/internal/traj"
)

// fixtureSpec freezes one synthetic world: network, traffic, trajectory
// simulation and training protocol. Every seed in it is fixed — only the
// requests a workload sends derive from the run's -seed.
type fixtureSpec struct {
	name      string
	cfg       stochroute.Config
	landmarks int
}

// scale is one frozen sizing of the whole benchmark. "full" is what
// BENCHMARK.json runs; "smoke" is the same code on toy fixtures for the
// package test.
type scale struct {
	name  string
	city  fixtureSpec
	metro fixtureSpec

	searchBlock  int     // distinct queries = requests per city_search / ingest_swap block
	searchLoKm   float64 // city query distance band
	searchHiKm   float64
	hotKeys      int // distinct cached keys of city_hot
	hotBlock     int // Zipf-drawn requests per city_hot block
	metroItems   int // distinct time-expanded items per metro block
	batchSize    int // items per POST /route/batch
	metroLoKm    float64
	metroHiKm    float64
	ingestBatch  int // trajectories per /ingest round (= RebuildEvery)
	ingestPool   int // distinct drifted batches, cycled round-robin
	setupReps    int // set-ups per end-to-end run; setup_s is built from each stage's fastest
	captureLimit int // operand pairs / feature rows kept for the probes
	convStride   int // every n-th convolution / estimate of the traced block is kept
	estStride    int

	// blockSeconds is what one block takes one client on the box the sizes
	// were frozen on, per workload, and roundSeconds the same for an ingest
	// round. They turn --seconds into a number of blocks and rounds: the
	// run length buys a fixed amount of work, not a stretch of time.
	blockSeconds map[string]float64
	roundSeconds float64
	minBlocks    int
}

// work is the measured phase's size: blocks per client, ingest rounds.
type work struct{ blocks, rounds int }

func (sc *scale) workFor(workload string, runLength time.Duration) work {
	n := func(unit float64) int {
		return max(sc.minBlocks, int(runLength.Seconds()/unit+0.5))
	}
	return work{blocks: n(sc.blockSeconds[workload]), rounds: n(sc.roundSeconds)}
}

func cityConfig(rows, trajs, epochs, prefix int) stochroute.Config {
	cfg := stochroute.DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = rows, rows
	cfg.Walk.NumTrajectories = trajs
	cfg.Hybrid.Estimator.Train.Epochs = epochs
	cfg.Hybrid.PrefixRows = prefix
	return cfg
}

func metroConfig(rows, k, trajs, routes, epochs, trainPairs int) stochroute.Config {
	cfg := stochroute.DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = rows, rows
	cfg.Walk.NumTrajectories = trajs
	// Pure random walks on a grid this size give no edge pair enough
	// joint observations to train on; pooled routes concentrate them.
	cfg.Walk.RouteFraction = 0.9
	cfg.Walk.NumRoutes = routes
	cfg.Walk.Slices = k
	cfg.Hybrid.Slices = k
	cfg.Hybrid.Estimator.Train.Epochs = epochs
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = trainPairs, trainPairs/4
	cfg.Hybrid.PrefixRows = 0
	priors, err := traj.PeakedSlicePriors(cfg.World.ModePrior, k, 1, 0.6)
	if err != nil {
		panic(err) // constants above are valid
	}
	cfg.World.SlicePriors = priors
	return cfg
}

func scales() map[string]*scale {
	full := &scale{
		name:         "full",
		city:         fixtureSpec{name: "city", cfg: cityConfig(60, 6000, 6, 1000), landmarks: 8},
		metro:        fixtureSpec{name: "metro", cfg: metroConfig(190, 4, 6000, 120, 2, 800), landmarks: 8},
		searchBlock:  128,
		searchLoKm:   0.8,
		searchHiKm:   1.5,
		hotKeys:      256,
		hotBlock:     4096,
		metroItems:   256,
		batchSize:    16,
		metroLoKm:    0.8,
		metroHiKm:    1.6,
		ingestBatch:  1500,
		ingestPool:   4,
		setupReps:    3,
		captureLimit: 4096,
		convStride:   64,
		estStride:    2,
		blockSeconds: map[string]float64{"city_search": 0.80, "city_hot": 0.63, "metro_expanded_batch": 0.80, "ingest_swap": 0.82},
		roundSeconds: 1.6,
		minBlocks:    4,
	}
	smallCity := cityConfig(12, 1500, 4, 0)
	smallCity.Network.CellMeters = 130
	smallCity.Hybrid.TrainPairs, smallCity.Hybrid.TestPairs = 250, 60
	smallCity.Hybrid.MinPairObs = 8
	smallMetro := metroConfig(16, 2, 2400, 60, 2, 200)
	smallMetro.Network.CellMeters = 130
	smallMetro.Hybrid.MinPairObs = 8
	smoke := &scale{
		name:         "smoke",
		city:         fixtureSpec{name: "city", cfg: smallCity, landmarks: 4},
		metro:        fixtureSpec{name: "metro", cfg: smallMetro, landmarks: 4},
		searchBlock:  12,
		searchLoKm:   0.4,
		searchHiKm:   1.0,
		hotKeys:      16,
		hotBlock:     64,
		metroItems:   16,
		batchSize:    4,
		metroLoKm:    0.4,
		metroHiKm:    1.0,
		ingestBatch:  300,
		ingestPool:   2,
		setupReps:    1,
		captureLimit: 256,
		convStride:   4,
		estStride:    1,
		blockSeconds: map[string]float64{"city_search": 0.05, "city_hot": 0.05, "metro_expanded_batch": 0.05, "ingest_swap": 0.05},
		roundSeconds: 0.1,
		minBlocks:    2,
	}
	return map[string]*scale{"full": full, "smoke": smoke}
}

// setupTimes is the set-up budget, one entry per setup.* layer metric.
type setupTimes struct {
	netgen, trajectories, train, landmarks, modelSet, fleetStart, warmup time.Duration
}

func (t setupTimes) total() time.Duration {
	return t.netgen + t.trajectories + t.train + t.landmarks + t.modelSet + t.fleetStart + t.warmup
}

// quietSetup is the set-up rebuilt from each stage's fastest run over
// several set-ups. A stall of the machine hits one stage of one set-up;
// it would have to hit the same stage every time to reach this sum.
func quietSetup(runs []setupTimes) time.Duration {
	best := runs[0]
	for _, t := range runs[1:] {
		best.netgen = min(best.netgen, t.netgen)
		best.trajectories = min(best.trajectories, t.trajectories)
		best.train = min(best.train, t.train)
		best.landmarks = min(best.landmarks, t.landmarks)
		best.modelSet = min(best.modelSet, t.modelSet)
		best.fleetStart = min(best.fleetStart, t.fleetStart)
		best.warmup = min(best.warmup, t.warmup)
	}
	return best.total()
}

// fixture is one built world plus the engine trained on it. The
// pipeline is BuildEngine's, spelled out so each stage is timed and the
// trajectories and the world stay reachable: the second replica rebuilds
// its knowledge base from the former, the oracle distributions come from
// the latter.
type fixture struct {
	spec     *fixtureSpec
	g        *graph.Graph
	world    *traj.World
	trajs    []traj.Trajectory
	eng      *stochroute.Engine
	setBytes []byte // serialised model set, one private copy per further replica
	times    setupTimes
}

func buildFixture(spec *fixtureSpec) (*fixture, error) {
	fx := &fixture{spec: spec}
	t0 := time.Now()
	g, err := netgen.Generate(spec.cfg.Network)
	if err != nil {
		return nil, fmt.Errorf("%s: network: %w", spec.name, err)
	}
	fx.g = g
	fx.times.netgen = time.Since(t0)

	t0 = time.Now()
	if fx.world, err = traj.NewWorld(g, spec.cfg.World); err != nil {
		return nil, fmt.Errorf("%s: world: %w", spec.name, err)
	}
	if fx.trajs, err = traj.GenerateTrajectories(fx.world, spec.cfg.Walk); err != nil {
		return nil, fmt.Errorf("%s: trajectories: %w", spec.name, err)
	}
	fx.times.trajectories = time.Since(t0)

	t0 = time.Now()
	if fx.eng, err = stochroute.NewEngineFromObservations(g, fx.trajs, spec.cfg.Hybrid, io.Discard); err != nil {
		return nil, fmt.Errorf("%s: training: %w", spec.name, err)
	}
	fx.times.train = time.Since(t0)

	var buf bytes.Buffer
	if err := hybrid.WriteModelSet(&buf, fx.eng.ModelSet()); err != nil {
		return nil, fmt.Errorf("%s: serialise model set: %w", spec.name, err)
	}
	fx.setBytes = buf.Bytes()

	t0 = time.Now()
	if err := fx.eng.SetLandmarks(spec.landmarks); err != nil {
		return nil, fmt.Errorf("%s: landmarks: %w", spec.name, err)
	}
	fx.times.landmarks = time.Since(t0)
	return fx, nil
}

// replicaEngine assembles a further replica's engine the way cmd/serve
// does in artifact mode: a private deserialised model set attached to a
// knowledge base rebuilt from the same trajectories, bit-identical to
// the trained engine.
func (fx *fixture) replicaEngine() (*stochroute.Engine, error) {
	set, err := hybrid.ReadModelSet(bytes.NewReader(fx.setBytes))
	if err != nil {
		return nil, err
	}
	h := fx.spec.cfg.Hybrid
	eng, err := stochroute.NewEngineWithModelSet(fx.g, fx.trajs, h.Width, h.MinPairObs, set)
	if err != nil {
		return nil, err
	}
	if err := eng.SetLandmarks(fx.spec.landmarks); err != nil {
		return nil, err
	}
	return eng, nil
}

type replica struct {
	id  string
	eng *stochroute.Engine
	srv *server.Server
	ts  *httptest.Server
	ing *ingest.Ingestor
}

// fleet is the topology under test, in one process over loopback HTTP:
// gateway -> replica server(s) -> engine.
type fleet struct {
	fx   *fixture
	reps []*replica
	gw   *gateway.Gateway
	gwts *httptest.Server
	ring *gateway.Ring
	stop context.CancelFunc
}

type fleetOptions struct {
	replicas    int
	routeCache  int // server.Config.RouteCache: -1 disables, 0 is the default capacity
	ingestBatch int // > 0 attaches an ingestor rebuilding every ingestBatch trajectories
}

func startFleet(fx *fixture, opt fleetOptions) (*fleet, error) {
	t0 := time.Now()
	f := &fleet{fx: fx}
	entries := make([]gateway.Replica, 0, opt.replicas)
	ids := make([]string, 0, opt.replicas)
	for i := 0; i < opt.replicas; i++ {
		rep := &replica{id: fmt.Sprintf("r%d", i+1), eng: fx.eng}
		if i > 0 {
			tm := time.Now()
			eng, err := fx.replicaEngine()
			if err != nil {
				f.close()
				return nil, fmt.Errorf("replica %s: %w", rep.id, err)
			}
			rep.eng = eng
			fx.times.modelSet = time.Since(tm)
		}
		if opt.ingestBatch > 0 {
			// Drift windows off, one unconditional rebuild per ingested
			// batch: the number of retrains is the number of rounds, not
			// a function of timing. Seeded with the training set so every
			// retrain sees the base traffic plus what was ingested.
			rep.ing = ingest.New(rep.eng, ingest.Config{
				Hybrid:          fx.spec.cfg.Hybrid,
				Drift:           ingest.DriftConfig{Window: -1, RebuildEvery: opt.ingestBatch},
				MaxTrajectories: -1,
			}, nil)
			rep.ing.Seed(fx.trajs)
		}
		rep.srv = server.New(rep.eng, server.Config{
			RouteCache: opt.routeCache,
			Ingestor:   rep.ing,
			ReplicaID:  rep.id,
		})
		rep.ts = httptest.NewServer(rep.srv.Handler())
		f.reps = append(f.reps, rep)
		entries = append(entries, gateway.Replica{ID: rep.id, URL: rep.ts.URL})
		ids = append(ids, rep.id)
	}
	gw, err := gateway.New(gateway.Config{
		Replicas: entries,
		// Both cores are saturated by design; a probe that waits its turn
		// must not be read as a dead replica.
		ProbeTimeout: 10 * time.Second,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	gw.Start(ctx)
	f.gw, f.stop = gw, cancel
	f.gwts = httptest.NewServer(gw.Handler())
	f.ring = gateway.NewRing(ids, 0)
	fx.times.fleetStart = time.Since(t0) - fx.times.modelSet
	return f, nil
}

// owner is the replica the gateway's ring sends a (source, dest) pair to
// while the whole fleet is healthy.
func (f *fleet) owner(src, dst graph.VertexID) *replica {
	return f.reps[f.ring.Owner(gateway.KeyForPair(int(src), int(dst)))]
}

func (f *fleet) close() {
	if f.gwts != nil {
		f.gwts.Close()
	}
	if f.stop != nil {
		f.stop()
	}
	for _, rep := range f.reps {
		if rep.ts != nil {
			rep.ts.Close()
		}
		if rep.ing != nil {
			rep.ing.WaitRebuilds()
		}
	}
}

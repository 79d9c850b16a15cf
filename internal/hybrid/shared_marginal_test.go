package hybrid_test

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/ingest"
	"stochroute/internal/netgen"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// marginalSums checksums the Min / Width / P bits of every edge's
// marginal in every slice of set.
func marginalSums(set *hybrid.ModelSet) [][]uint64 {
	sums := make([][]uint64, set.K())
	for s := range sums {
		kb := set.At(s).KB
		sums[s] = make([]uint64, kb.Graph().NumEdges())
		for e := range sums[s] {
			m := kb.Edge(graph.EdgeID(e)).Marginal
			h := fnv.New64a()
			// A hash.Hash never fails a write.
			_ = binary.Write(h, binary.LittleEndian, []float64{m.Min, m.Width})
			_ = binary.Write(h, binary.LittleEndian, m.P)
			sums[s][e] = h.Sum64()
		}
	}
	return sums
}

// TestKnowledgeBaseMarginalsAreNeverMutated pins the contract that
// lets unobserved edges share one prior histogram: every reader of
// EdgeStats.Marginal clones it, convolves from it or measures it. A
// reader that wrote to one — a Clone() swapped for an in-place Trim(),
// a search that truncates the first label's distribution where it
// stands — would change the cost of every edge holding that pointer.
func TestKnowledgeBaseMarginalsAreNeverMutated(t *testing.T) {
	const slices = 2
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 24, 24
	ncfg.CellMeters = 130
	ncfg.Seed = 41
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 42
	if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, slices, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 4000, MinEdges: 4, MaxEdges: 20, Seed: 43,
		RouteFraction: 0.95, NumRoutes: 60, RouteJitter: 0.2, Slices: slices,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hybrid.DefaultConfig()
	cfg.Width = wcfg.BucketWidth
	cfg.MinPairObs = 10
	cfg.TrainPairs, cfg.TestPairs = 300, 60
	cfg.Estimator.Hidden = []int{16}
	cfg.Estimator.Train.Epochs = 4
	cfg.PrefixRows = 300
	cfg.MaxBuckets = 256
	cfg.Slices = slices
	stores := traj.CollectSlices(g, cfg.Width, slices, trajs)
	bySlice := traj.SplitBySlice(trajs, slices)
	set, _, err := hybrid.TrainSlices(g, stores, bySlice, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slices; s++ {
		observed, edges, distinct := set.At(s).KB.EdgeCoverage()
		if shared := (edges - observed) - (distinct - observed); shared < edges/10 {
			t.Fatalf("slice %d: only %d of %d edges share a marginal with another; the fixture does not exercise sharing", s, shared, edges)
		}
	}

	want := marginalSums(set)
	unchanged := func(after string) {
		t.Helper()
		for s, sums := range marginalSums(set) {
			for e, sum := range sums {
				if sum != want[s][e] {
					t.Fatalf("after %s: slice %d edge %d's marginal changed", after, s, e)
				}
			}
		}
	}

	queries, err := netgen.NewWorkloadGen(g, 44).SampleCategory(netgen.DistanceCategory{LoKm: 0.5, HiKm: 1.5}, 12)
	if err != nil {
		t.Fatal(err)
	}
	alt, err := routing.BuildALT(g, set.MinEdgeTimeAcrossSlices, routing.SelectLandmarks(g, nil, 4))
	if err != nil {
		t.Fatal(err)
	}
	var paths [][]graph.EdgeID
	for qi, q := range queries {
		_, meanTime, err := routing.MeanCostPath(g, set.At(1).KB, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		opts := routing.Options{Budget: []float64{0.9, 1, 1.15}[qi%3] * meanTime, Departure: traj.SliceMid(1, slices)}
		if qi%2 == 1 {
			opts.Potentials = alt
		}
		for _, coster := range []hybrid.Coster{set.At(1), &hybrid.ConvolutionCoster{KB: set.At(1).KB, MaxBuckets: cfg.MaxBuckets}} {
			res, err := routing.PBR(g, coster, q.Source, q.Dest, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Found {
				paths = append(paths, res.Path)
			}
		}
		opts.TimeExpanded = true
		opts.Departure = traj.SliceStart(1, slices) - 60
		if _, err := routing.PBR(g, set.TimeExpandedCoster(opts.Departure, nil), q.Source, q.Dest, opts); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("classic and time-expanded PBR searches")
	if len(paths) == 0 {
		t.Fatal("no search found a path")
	}

	for _, path := range paths {
		if _, err := hybrid.PathCost(set.At(0), path); err != nil {
			t.Fatal(err)
		}
		if _, _, err := hybrid.PathCostElapsed(set.TimeExpandedCoster(traj.SliceStart(1, slices)-60, nil), path); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("PathCost and PathCostElapsed")

	for _, q := range queries[:4] {
		_, meanTime, err := routing.MeanCostPath(g, set.At(0).KB, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := routing.ParetoRoutes(g, set.At(0), q.Source, q.Dest, routing.ParetoOptions{Horizon: 1.5 * meanTime}); err != nil {
			t.Fatal(err)
		}
	}
	unchanged("ParetoRoutes")

	if _, _, err := hybrid.Train(set.At(0).KB, stores[0], bySlice[0], nil, cfg); err != nil {
		t.Fatal(err)
	}
	unchanged("Train")

	monitor := ingest.NewDriftMonitor(ingest.DriftConfig{Window: len(bySlice[1]), MinEdgeObs: 1}, cfg.Width)
	for i := range bySlice[1] {
		monitor.Observe(&bySlice[1][i])
	}
	if rep := monitor.Evaluate(set.At(0).KB); rep.Checked == 0 {
		t.Fatal("the drift window compared no edge")
	}
	unchanged("a drift evaluation")

	var buf bytes.Buffer
	if err := hybrid.WriteModelSet(&buf, set); err != nil {
		t.Fatal(err)
	}
	loaded, err := hybrid.ReadModelSet(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < slices; s++ {
		if err := loaded.At(s).AttachKB(set.At(s).KB); err != nil {
			t.Fatal(err)
		}
	}
	var fromFile, inProcess *hist.Hist
	if fromFile, err = hybrid.PathCost(loaded.At(1), paths[0]); err != nil {
		t.Fatal(err)
	}
	if inProcess, err = hybrid.PathCost(set.At(1), paths[0]); err != nil {
		t.Fatal(err)
	}
	if aGE, bGE := hist.CompareCDF(fromFile, inProcess); !aGE || !bGE {
		t.Error("the reloaded model set costs a path differently")
	}
	unchanged("a WriteModelSet round trip")
}

package hybrid

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// slicedWorld is a 3-slice world whose slice 1 is peaked, so the
// slices' mode priors, and with them their pair truths, differ.
func slicedWorld(t *testing.T) *traj.World {
	t.Helper()
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 10, 10
	ncfg.CellMeters = 130
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, 3, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	w, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func sameBits(a, b *hist.Hist) bool {
	if a.Min != b.Min || a.Width != b.Width || len(a.P) != len(b.P) {
		return false
	}
	for i := range a.P {
		if math.Float64bits(a.P[i]) != math.Float64bits(b.P[i]) {
			return false
		}
	}
	return true
}

// TestWorldOracleReadsItsSlice: over every adjacent edge pair, slice 0's
// truth is World.PairJointSum to the bit, slice s's is PairJointSumAt(…,
// s), the slices do differ somewhere, and the label is PairIsDependent.
func TestWorldOracleReadsItsSlice(t *testing.T) {
	w := slicedWorld(t)
	g := w.Graph()
	differs := 0
	for e1 := 0; e1 < g.NumEdges(); e1++ {
		via := g.Edge(graph.EdgeID(e1)).To
		for _, e2 := range g.Out(via) {
			k := traj.PairKey{First: graph.EdgeID(e1), Second: e2}
			truth := make([]*hist.Hist, 3)
			for s := range truth {
				truth[s] = new(hist.Hist)
				if err := (WorldOracle{World: w, Slice: s}).PairTruthInto(truth[s], k); err != nil {
					t.Fatal(err)
				}
				if want := w.PairJointSumAt(k.First, k.Second, via, s); !sameBits(truth[s], want) {
					t.Fatalf("pair %v slice %d: %v, want PairJointSumAt %v", k, s, truth[s], want)
				}
			}
			if want := w.PairJointSum(k.First, k.Second, via); !sameBits(truth[0], want) {
				t.Fatalf("pair %v slice 0: %v, want PairJointSum %v", k, truth[0], want)
			}
			if !sameBits(truth[0], truth[1]) {
				differs++
			}
			for s := range truth {
				if got := (WorldOracle{World: w, Slice: s}).PairDependent(k); got != w.PairIsDependent(via) {
					t.Fatalf("pair %v slice %d: dependent %v, want %v", k, s, got, !got)
				}
			}
		}
	}
	if differs == 0 {
		t.Fatal("no pair's truth moves between slice 0 and the peaked slice 1")
	}
}

// TestTrainSlicesJudgesEachSliceByItsWorldSlice: with a world,
// TrainSlices reports slice s exactly as Train does with
// WorldOracle{world, s} on that slice's inputs, and the models are the
// bits of a world-less run.
func TestTrainSlicesJudgesEachSliceByItsWorldSlice(t *testing.T) {
	w := slicedWorld(t)
	g := w.Graph()
	trajs, err := traj.GenerateTrajectories(w, traj.WalkConfig{
		NumTrajectories: 3000, MinEdges: 4, MaxEdges: 14, Seed: 8, Slices: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := quickSlicedConfig(traj.DefaultWorldConfig().BucketWidth, 3)
	cfg.MinPairObs = 6
	cfg.TrainPairs, cfg.TestPairs = 150, 40
	stores := traj.CollectSlices(g, cfg.Width, 3, trajs)
	bySlice := traj.SplitBySlice(trajs, 3)
	set, reports, err := TrainSlices(g, stores, bySlice, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	empirical, _, err := TrainSlices(g, stores, bySlice, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := WriteModelSet(&got, set); err != nil {
		t.Fatal(err)
	}
	if err := WriteModelSet(&want, empirical); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("the world changed the trained models")
	}
	for s := 0; s < 3; s++ {
		kb, err := BuildKnowledgeBase(g, stores[s], cfg.Width, cfg.MinPairObs)
		if err != nil {
			t.Fatal(err)
		}
		_, want, err := Train(kb, stores[s], bySlice[s], WorldOracle{World: w, Slice: s}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reports[s], want) {
			t.Errorf("slice %d: TrainSlices report %+v, want the slice's own world truth %+v", s, reports[s], want)
		}
	}
}

package hybrid

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// slicedTrainingInputs is a three-slice training problem small enough to
// train twice in a test: a 14 × 14 network and route-heavy walks, so
// every slice has supported pairs.
func slicedTrainingInputs(t testing.TB) (*graph.Graph, []traj.Trajectory, Config) {
	t.Helper()
	const slices = 3
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 14, 14
	ncfg.CellMeters = 130
	ncfg.Seed = 91
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 92
	var err error
	if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, slices, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	g, trajs := walkedSubstrate(t, ncfg, wcfg, traj.WalkConfig{
		NumTrajectories: 4500, MinEdges: 4, MaxEdges: 16, Seed: 93,
		RouteFraction: 0.8, NumRoutes: 80, RouteJitter: 0.25, Slices: slices,
	})
	return g, trajs, quickSlicedConfig(wcfg.BucketWidth, slices)
}

// quickSlicedConfig is the whole training pipeline (prefix phase on) cut
// down to a fraction of a second per slice.
func quickSlicedConfig(width float64, slices int) Config {
	cfg := DefaultConfig()
	cfg.Width = width
	cfg.MinPairObs = 10
	cfg.TrainPairs, cfg.TestPairs = 300, 60
	cfg.Estimator.Hidden = []int{16}
	cfg.Estimator.Train.Epochs = 4
	cfg.PrefixRows = 300
	cfg.MaxBuckets = 256
	cfg.Slices = slices
	return cfg
}

// trainSlicesAt collects and trains under the given GOMAXPROCS and
// restores the setting.
func trainSlicesAt(procs int, g *graph.Graph, trajs []traj.Trajectory, cfg Config) (*ModelSet, []*EvalReport, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	sobs := traj.NewSlicedObservations(g, cfg.Width, cfg.Slices)
	sobs.Collect(trajs)
	return TrainSlices(g, sobs, traj.SplitBySlice(trajs, cfg.Slices), nil, cfg)
}

// TestTrainSlicesBitIdenticalAcrossWorkers: a slice's model depends on
// its own inputs and cfg.Seed alone, so the set one worker trains slice
// after slice and the set four workers train side by side serialise to
// the same bytes and evaluate to the same reports.
func TestTrainSlicesBitIdenticalAcrossWorkers(t *testing.T) {
	g, trajs, cfg := slicedTrainingInputs(t)
	var wantBytes []byte
	var wantReports []*EvalReport
	for _, procs := range []int{1, 4} {
		set, reports, err := trainSlicesAt(procs, g, trajs, cfg)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		var buf bytes.Buffer
		if err := WriteModelSet(&buf, set); err != nil {
			t.Fatal(err)
		}
		if wantBytes == nil {
			wantBytes, wantReports = buf.Bytes(), reports
			continue
		}
		if !bytes.Equal(buf.Bytes(), wantBytes) {
			t.Errorf("GOMAXPROCS %d: the model set serialises to different bytes than at GOMAXPROCS 1", procs)
		}
		for s, r := range reports {
			if *r != *wantReports[s] {
				t.Errorf("GOMAXPROCS %d: slice %d report %+v, want %+v", procs, s, *r, *wantReports[s])
			}
		}
	}
}

// TestTrainSlicesStarvedSliceFailsTheSameWay: with slices 1 and 2 short
// of supported pairs the caller hears about slice 1, in the same words,
// whether slice 2 failed before it or after.
func TestTrainSlicesStarvedSliceFailsTheSameWay(t *testing.T) {
	g, trajs, cfg := slicedTrainingInputs(t)
	var starved []traj.Trajectory
	kept := make([]int, cfg.Slices)
	for _, tr := range trajs {
		s := traj.SliceIndex(tr.Departure, cfg.Slices)
		if kept[s]++; s == 0 || kept[s] <= 20*s {
			starved = append(starved, tr)
		}
	}
	var want string
	for _, procs := range []int{1, 4, 1, 4} {
		_, _, err := trainSlicesAt(procs, g, starved, cfg)
		if err == nil {
			t.Fatalf("GOMAXPROCS %d: training succeeded with two starved slices", procs)
		}
		if want == "" {
			want = err.Error()
			if !strings.HasPrefix(want, "hybrid: slice 1 training: hybrid: only ") {
				t.Fatalf("error %q does not name slice 1's shortage", want)
			}
		}
		if err.Error() != want {
			t.Errorf("GOMAXPROCS %d: error %q, want %q", procs, err, want)
		}
	}
}

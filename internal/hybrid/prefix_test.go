package hybrid

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"stochroute/internal/ml"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// pathCostPrefixDataset is the prefix harvest as it was written before
// the one-pass scratch form: every sampled prefix costed from its first
// edge through PathCost, rows gathered as they were drawn.
func pathCostPrefixDataset(model *Model, trajs []traj.Trajectory, cfg EstimatorConfig, maxRows, perTrajectory int, r *rng.RNG) (x, y *ml.Matrix) {
	kb := model.KB
	outDim := cfg.Bands * cfg.CondBuckets
	var rows, targets [][]float64
	for _, ti := range r.Perm(len(trajs)) {
		if len(rows) >= maxRows {
			break
		}
		tr := &trajs[ti]
		if len(tr.Edges) < 3 {
			continue
		}
		taken := 0
		for attempts := 0; attempts < 2*perTrajectory && taken < perTrajectory && len(rows) < maxRows; attempts++ {
			i := 2 + r.Intn(len(tr.Edges)-2)
			last, next := tr.Edges[i-1], tr.Edges[i]
			if !model.ShouldEstimate(last, next) {
				continue
			}
			virtual, err := PathCost(model, tr.Edges[:i])
			if err != nil {
				continue
			}
			prefixSum := 0.0
			for _, t := range tr.Times[:i] {
				prefixSum += t
			}
			band := BandOfValue(virtual, prefixSum, cfg.Bands)
			off := int(math.Round((tr.Times[i] - kb.Edge(next).MinTime) / kb.Width))
			if off < 0 {
				off = 0
			}
			if off >= cfg.CondBuckets {
				off = cfg.CondBuckets - 1
			}
			ps, hasPair := kb.Pair(last, next)
			target := make([]float64, outDim)
			target[band*cfg.CondBuckets+off] = 1
			rows = append(rows, Features(kb, virtual, next, ps, hasPair))
			targets = append(targets, target)
			taken++
		}
	}
	if len(rows) == 0 {
		return nil, nil
	}
	x, y = ml.NewMatrix(len(rows), NumFeatures), ml.NewMatrix(len(rows), outDim)
	for i := range rows {
		copy(x.Row(i), rows[i])
		copy(y.Row(i), targets[i])
	}
	return x, y
}

// TestPrefixDatasetMatchesPathCostHarvest: the one-pass harvest returns
// exactly the rows, in the same order, that costing every prefix through
// PathCost returned, for each slice model over the goldens' substrate
// with PrefixRows 300.
func TestPrefixDatasetMatchesPathCostHarvest(t *testing.T) {
	ncfg, wcfg, walk := goldenConfigs(t)
	g, trajs := walkedSubstrate(t, ncfg, wcfg, walk)
	cfg := quickSlicedConfig(wcfg.BucketWidth, walk.Slices)
	stores := traj.CollectSlices(g, cfg.Width, cfg.Slices, trajs)
	bySlice := traj.SplitBySlice(trajs, cfg.Slices)
	set, _, err := TrainSlices(g, stores, bySlice, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s, model := range set.Models() {
		x, y := buildPrefixDataset(model, bySlice[s], cfg.Estimator, cfg.PrefixRows, cfg.PrefixPerTrajectory, rng.New(cfg.Seed^0xf00d))
		wantX, wantY := pathCostPrefixDataset(model, bySlice[s], cfg.Estimator, cfg.PrefixRows, cfg.PrefixPerTrajectory, rng.New(cfg.Seed^0xf00d))
		if wantX == nil || wantX.Rows < cfg.PrefixRows/2 {
			t.Fatalf("slice %d: the reference harvest found under %d rows; the case exercises too little", s, cfg.PrefixRows/2)
		}
		if !reflect.DeepEqual(x, wantX) || !reflect.DeepEqual(y, wantY) {
			t.Errorf("slice %d: the one-pass harvest differs from the PathCost harvest (%d vs %d rows)", s, x.Rows, wantX.Rows)
		}
	}
}

// TestTrainedEstimatorIsItsReadNetwork: a trained network holds its
// parameters and nothing else from training — no cached batch, mask,
// activation or gradient — so it equals what ReadNetwork rebuilds from
// its serialisation.
func TestTrainedEstimatorIsItsReadNetwork(t *testing.T) {
	m, _ := getModel(t)
	var buf bytes.Buffer
	if err := ml.WriteNetwork(&buf, m.Estimator.Net); err != nil {
		t.Fatal(err)
	}
	read, err := ml.ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Estimator.Net, read) {
		t.Error("the trained network differs from ReadNetwork of its own serialisation: it still holds training state")
	}
}

package hybrid

import (
	"errors"
	"fmt"

	"stochroute/internal/hist"
	"stochroute/internal/ml"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// Config parameterises the full training pipeline.
type Config struct {
	// Width is the global histogram grid width in seconds.
	Width float64
	// MinPairObs is the minimum joint observation count for a pair to
	// count as "with data" (enter the knowledge base and training).
	MinPairObs int
	// TrainPairs and TestPairs set the paper's protocol sizes (4000 and
	// 1000). When fewer pairs exist, an 80/20 split is used instead.
	TrainPairs int
	TestPairs  int
	// Alpha is the chi-square significance level for dependence labels.
	Alpha float64
	// Estimator and Classifier configure the two learners.
	Estimator  EstimatorConfig
	Classifier ml.LogRegConfig
	// MaxBuckets caps routing-time distribution supports.
	MaxBuckets int
	// PrefixRows enables virtual-edge (second-phase) training: up to
	// this many extra examples are harvested from trajectory prefixes so
	// the estimator is calibrated on long pre-paths, not only edge
	// pairs (see prefix.go). 0 disables the phase.
	PrefixRows int
	// PrefixPerTrajectory caps prefix examples per trajectory.
	PrefixPerTrajectory int
	// Seed drives the train/test split.
	Seed uint64
	// Slices partitions the day into this many time-of-day slices and
	// trains one model per slice on that slice's observations (see
	// TrainSlices / ModelSet). 0 or 1 trains the classic single
	// time-homogeneous model.
	Slices int
}

// DefaultConfig mirrors the paper's protocol.
func DefaultConfig() Config {
	return Config{
		Width:               2,
		MinPairObs:          20,
		TrainPairs:          4000,
		TestPairs:           1000,
		Alpha:               0.05,
		Estimator:           DefaultEstimatorConfig(),
		Classifier:          ml.DefaultLogRegConfig(),
		MaxBuckets:          512,
		PrefixRows:          12000,
		PrefixPerTrajectory: 3,
		Seed:                1234,
	}
}

// EvalReport is the paper's model-quality evaluation (E4 in internal/exp):
// mean KL divergence to ground truth over the held-out test pairs, for
// the hybrid model, convolution, and always-estimate.
type EvalReport struct {
	TrainPairs int
	TestPairs  int

	MeanKLHybrid   float64
	MeanKLConv     float64
	MeanKLEstimate float64

	// Per-class breakdown over test pairs labelled by the oracle (when
	// provided) or chi-square (otherwise).
	DependentFrac   float64
	MeanKLHybridDep float64
	MeanKLConvDep   float64
	MeanKLHybridInd float64
	MeanKLConvInd   float64

	ClassifierConfusion ml.Confusion
	ClassifierAUC       float64

	EstimatorTrain ml.TrainResult
}

// Oracle supplies ground-truth pair-sum distributions and dependence
// labels; the experiment harness backs it with the traffic world model,
// mirroring how the paper's ground truth comes from held-out
// trajectories.
type Oracle interface {
	PairTruth(k traj.PairKey) (*hist.Hist, error)
	PairDependent(k traj.PairKey) bool
}

// Train runs the full pipeline: split pairs 4000/1000 (or 80/20), train
// the estimator and the classifier on the training pairs, optionally run
// the virtual-edge second phase over the trajectories (trajs may be nil
// to skip it), and evaluate KL divergences on the test pairs against the
// oracle (or the empirical pair-sum histograms when oracle is nil).
func Train(kb *KnowledgeBase, obs *traj.ObservationStore, trajs []traj.Trajectory, oracle Oracle, cfg Config) (*Model, *EvalReport, error) {
	if kb.Width != cfg.Width {
		return nil, nil, fmt.Errorf("hybrid: knowledge base width %v != config width %v", kb.Width, cfg.Width)
	}
	pairs := obs.PairsWithSupport(cfg.MinPairObs)
	if len(pairs) < 10 {
		return nil, nil, fmt.Errorf("hybrid: only %d pairs with >= %d observations; need more trajectories", len(pairs), cfg.MinPairObs)
	}

	// Deterministic split.
	r := rng.New(cfg.Seed)
	r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	nTrain, nTest := cfg.TrainPairs, cfg.TestPairs
	if nTrain+nTest > len(pairs) {
		nTrain = len(pairs) * 4 / 5
		nTest = len(pairs) - nTrain
	}
	if nTrain < 1 || nTest < 1 {
		return nil, nil, errors.New("hybrid: not enough pairs to split")
	}
	trainPairs := pairs[:nTrain]
	testPairs := pairs[nTrain : nTrain+nTest]

	est, trainRes, err := TrainEstimator(kb, obs, trainPairs, cfg.Estimator)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: estimator training: %w", err)
	}
	clf, conf, err := TrainClassifier(kb, obs, trainPairs, cfg.Alpha, cfg.Classifier)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: classifier training: %w", err)
	}

	model := &Model{
		KB:         kb,
		Estimator:  est,
		Classifier: clf,
		Mode:       Auto,
		MaxBuckets: cfg.MaxBuckets,
	}

	// Virtual-edge second phase: augment the pair dataset with
	// prefix-harvested examples computed under the phase-1 model, then
	// retrain the estimator from scratch on the union.
	if cfg.PrefixRows > 0 && len(trajs) > 0 {
		perTraj := cfg.PrefixPerTrajectory
		if perTraj <= 0 {
			perTraj = 3
		}
		px, py := buildPrefixDataset(model, trajs, cfg.Estimator,
			cfg.PrefixRows, perTraj, rng.New(cfg.Seed^0xf00d))
		if px != nil {
			pairX, pairY, err := buildEstimatorDataset(kb, obs, trainPairs, cfg.Estimator)
			if err != nil {
				return nil, nil, fmt.Errorf("hybrid: phase-2 pair dataset: %w", err)
			}
			est2, res2, err := trainEstimatorOn(kb, concatRows(pairX, px), concatRows(pairY, py), cfg.Estimator)
			if err != nil {
				return nil, nil, fmt.Errorf("hybrid: phase-2 training: %w", err)
			}
			model.Estimator = est2
			trainRes = res2
		}
	}

	report, err := Evaluate(model, obs, oracle, testPairs, cfg.Alpha)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: evaluation: %w", err)
	}
	report.TrainPairs = nTrain
	report.ClassifierConfusion = conf
	report.EstimatorTrain = trainRes

	// Classifier AUC on test pairs against oracle/chi-square labels.
	var probs, labels []float64
	for _, k := range testPairs {
		ps, ok := kb.Pair(k.First, k.Second)
		if !ok {
			continue
		}
		row := ClassifierFeatures(ps)
		clf.Scaler.TransformRow(row)
		probs = append(probs, clf.LR.PredictProb(row))
		labels = append(labels, boolTo01(pairLabel(obs, oracle, k, cfg.Alpha)))
	}
	if auc, err := ml.AUC(probs, labels); err == nil {
		report.ClassifierAUC = auc
	}
	return model, report, nil
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func pairLabel(obs *traj.ObservationStore, oracle Oracle, k traj.PairKey, alpha float64) bool {
	if oracle != nil {
		return oracle.PairDependent(k)
	}
	res, err := obs.DependenceTest(k, 3, alpha)
	if err != nil {
		return false
	}
	return res.Dependent(alpha)
}

// Evaluate measures mean KL divergence to ground truth over the given
// test pairs for the hybrid model, convolution-only and estimate-only
// variants. Ground truth comes from the oracle, or from the empirical
// pair-sum histograms when oracle is nil (the paper's "ground truth
// trajectories").
func Evaluate(model *Model, obs *traj.ObservationStore, oracle Oracle, testPairs []traj.PairKey, alpha float64) (*EvalReport, error) {
	if len(testPairs) == 0 {
		return nil, errors.New("hybrid: Evaluate with no test pairs")
	}
	kb := model.KB
	report := &EvalReport{TestPairs: len(testPairs)}
	var sumH, sumC, sumE float64
	var sumHDep, sumCDep, sumHInd, sumCInd float64
	var nDep, nInd int
	const eps = 1e-6

	for _, k := range testPairs {
		truth, err := pairTruth(obs, oracle, k, kb.Width)
		if err != nil {
			return nil, err
		}
		conv := hist.MustConvolve(kb.Edge(k.First).Marginal, kb.Edge(k.Second).Marginal)

		prevMode := model.Mode
		model.Mode = Auto
		hyb, err := model.PairSumEstimate(k.First, k.Second)
		if err != nil {
			return nil, err
		}
		model.Mode = AlwaysEstimate
		estOnly, err := model.PairSumEstimate(k.First, k.Second)
		if err != nil {
			return nil, err
		}
		model.Mode = prevMode

		klH, err := hist.KL(truth, hyb, eps)
		if err != nil {
			return nil, err
		}
		klC, err := hist.KL(truth, conv, eps)
		if err != nil {
			return nil, err
		}
		klE, err := hist.KL(truth, estOnly, eps)
		if err != nil {
			return nil, err
		}
		sumH += klH
		sumC += klC
		sumE += klE

		if pairLabel(obs, oracle, k, alpha) {
			nDep++
			sumHDep += klH
			sumCDep += klC
		} else {
			nInd++
			sumHInd += klH
			sumCInd += klC
		}
	}
	n := float64(len(testPairs))
	report.MeanKLHybrid = sumH / n
	report.MeanKLConv = sumC / n
	report.MeanKLEstimate = sumE / n
	report.DependentFrac = float64(nDep) / n
	if nDep > 0 {
		report.MeanKLHybridDep = sumHDep / float64(nDep)
		report.MeanKLConvDep = sumCDep / float64(nDep)
	}
	if nInd > 0 {
		report.MeanKLHybridInd = sumHInd / float64(nInd)
		report.MeanKLConvInd = sumCInd / float64(nInd)
	}
	return report, nil
}

func pairTruth(obs *traj.ObservationStore, oracle Oracle, k traj.PairKey, width float64) (*hist.Hist, error) {
	if oracle != nil {
		return oracle.PairTruth(k)
	}
	return obs.PairSumHist(k, width)
}

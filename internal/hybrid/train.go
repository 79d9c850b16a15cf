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
	// Estimator configures the distribution-estimation learner.
	Estimator EstimatorConfig
	// MaxBuckets caps routing-time distribution supports.
	MaxBuckets int
	// PrefixRows enables virtual-edge (second-phase) training: up to
	// this many extra examples are harvested from trajectory prefixes so
	// the estimator is calibrated on long pre-paths, not only edge
	// pairs (see prefix.go). 0 disables the phase.
	PrefixRows int
	// Slices partitions the day into this many time-of-day slices and
	// trains one model per slice on that slice's observations (see
	// TrainSlices / ModelSet). 0 or 1 trains the classic single
	// time-homogeneous model.
	Slices int
}

// The protocol's fixed settings.
const (
	alpha               = 0.05 // χ² significance level of the dependence labels
	prefixPerTrajectory = 3    // prefix examples harvested per trajectory at most
	// Seed drives a training run's split and prefix harvest; an
	// ingestor's prefix reservoir draws from it too.
	Seed = 1234
)

// DefaultConfig mirrors the paper's protocol.
func DefaultConfig() Config {
	return Config{
		Width:      2,
		MinPairObs: 20,
		TrainPairs: 4000,
		TestPairs:  1000,
		Estimator:  DefaultEstimatorConfig(),
		MaxBuckets: 512,
		PrefixRows: 12000,
	}
}

// Validate reports whether cfg can train a model and be recorded in its
// file: a grid width traj.CheckWidth accepts, a positive pair threshold
// and protocol sizes, no negative prefix rows or bucket cap, and a valid
// estimator.
func (c Config) Validate() error {
	if err := traj.CheckWidth(c.Width); err != nil {
		return fmt.Errorf("hybrid: %w", err)
	}
	switch {
	case c.MinPairObs < 1:
		return fmt.Errorf("hybrid: MinPairObs %d must be >= 1", c.MinPairObs)
	case c.TrainPairs < 1 || c.TestPairs < 1:
		return fmt.Errorf("hybrid: TrainPairs %d and TestPairs %d must be >= 1", c.TrainPairs, c.TestPairs)
	case c.PrefixRows < 0 || c.MaxBuckets < 0:
		return fmt.Errorf("hybrid: PrefixRows %d and MaxBuckets %d must be >= 0", c.PrefixRows, c.MaxBuckets)
	}
	return c.Estimator.Validate()
}

// protocol is the part of a model's training Config that its estimator
// does not hold: which pairs have data, how many trained and tested it,
// and how many prefix rows. Train records it; the model file carries it.
type protocol struct {
	minPairObs, trainPairs, testPairs, prefixRows int
}

// errNoRecipe is what Recipe reports for a model that neither Train nor
// a model file made, such as a bare &Model{KB: kb}.
var errNoRecipe = errors.New("hybrid: model carries no training recipe")

// Recipe returns the training Config m was built with, as its model
// file records it: grid width, pair threshold, protocol sizes, prefix
// rows, bucket cap, and the estimator's shape (Hidden as its network
// has it), epochs and patience; the fitting loop's other settings are
// ml.DefaultTrainConfig's, and Slices is 0 (ModelSet.Recipe sets it).
// A recipe that fails Validate is an error.
func (m *Model) Recipe() (Config, error) {
	if m.Estimator == nil || m.protocol == (protocol{}) {
		return Config{}, errNoRecipe
	}
	est := m.Estimator.Cfg
	est.Train = ml.DefaultTrainConfig()
	est.Train.Epochs, est.Train.Patience = m.Estimator.Cfg.Train.Epochs, m.Estimator.Cfg.Train.Patience
	cfg := Config{
		Width:      m.Estimator.Width,
		MinPairObs: m.protocol.minPairObs,
		TrainPairs: m.protocol.trainPairs,
		TestPairs:  m.protocol.testPairs,
		Estimator:  est,
		MaxBuckets: m.MaxBuckets,
		PrefixRows: m.protocol.prefixRows,
	}
	return cfg, cfg.Validate()
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

// Oracle supplies the truth a training report is judged by: the
// ground-truth pair-sum distributions and dependence labels. A nil
// Oracle judges by the held-out empirical pair sums and chi-square
// labels, as the paper does with its held-out trajectories; WorldOracle
// judges by a synthetic world's analytic truth.
type Oracle interface {
	PairTruth(k traj.PairKey) (*hist.Hist, error)
	PairDependent(k traj.PairKey) bool
}

// WorldOracle is the Oracle of a synthetic world for one time-of-day
// slice: the pair sum is World.PairJointSumAt under that slice's mode
// prior (slice 0 is World.PairJointSum) and the label is
// World.PairIsDependent. A World is read-only, so one WorldOracle may
// serve any number of goroutines.
type WorldOracle struct {
	World *traj.World
	Slice int
}

// PairTruth implements Oracle.
func (o WorldOracle) PairTruth(k traj.PairKey) (*hist.Hist, error) {
	via := o.World.Graph().Edge(k.Second).From
	return o.World.PairJointSumAt(k.First, k.Second, via, o.Slice), nil
}

// PairDependent implements Oracle.
func (o WorldOracle) PairDependent(k traj.PairKey) bool {
	return o.World.PairIsDependent(o.World.Graph().Edge(k.Second).From)
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
	r := rng.New(Seed)
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

	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	pairX, pairY, err := buildEstimatorDataset(kb, obs, trainPairs, cfg.Estimator)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: estimator training: %w", err)
	}
	est, trainRes, err := trainEstimatorOn(kb, pairX, pairY, cfg.Estimator)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: estimator training: %w", err)
	}
	clf, conf, err := TrainClassifier(kb, trainPairs)
	if err != nil {
		return nil, nil, fmt.Errorf("hybrid: classifier training: %w", err)
	}

	model := &Model{
		KB:         kb,
		Estimator:  est,
		Classifier: clf,
		Mode:       Auto,
		MaxBuckets: cfg.MaxBuckets,
		protocol:   protocol{cfg.MinPairObs, cfg.TrainPairs, cfg.TestPairs, cfg.PrefixRows},
	}

	// Virtual-edge second phase: augment phase 1's pair rows with
	// prefix-harvested examples computed under the phase-1 model, then
	// retrain the estimator from scratch on the union.
	if cfg.PrefixRows > 0 && len(trajs) > 0 {
		px, py := buildPrefixDataset(model, trajs, cfg.Estimator,
			cfg.PrefixRows, prefixPerTrajectory, rng.New(Seed^0xf00d))
		if px != nil {
			est2, res2, err := trainEstimatorOn(kb, concatRows(pairX, px), concatRows(pairY, py), cfg.Estimator)
			if err != nil {
				return nil, nil, fmt.Errorf("hybrid: phase-2 training: %w", err)
			}
			model.Estimator = est2
			trainRes = res2
		}
	}

	report, err := Evaluate(model, obs, oracle, testPairs)
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
		row := classifierRow(ps)
		clf.Scaler.TransformRow(row[:])
		probs = append(probs, clf.LR.PredictProb(row[:]))
		labels = append(labels, boolTo01(pairLabel(kb, oracle, k)))
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

// pairLabel is the truth a report reads a pair's dependence from: the
// oracle's, or without one the knowledge base's chi-square label (a
// pair outside the table is independent, as the classifier treats it).
func pairLabel(kb *KnowledgeBase, oracle Oracle, k traj.PairKey) bool {
	if oracle != nil {
		return oracle.PairDependent(k)
	}
	ps, ok := kb.Pair(k.First, k.Second)
	return ok && ps.PValue < alpha
}

// Evaluate measures mean KL divergence to ground truth over the given
// test pairs for the hybrid model, convolution-only and estimate-only
// variants. Ground truth comes from the oracle, or from the empirical
// pair-sum histograms when oracle is nil (the paper's "ground truth
// trajectories").
func Evaluate(model *Model, obs *traj.ObservationStore, oracle Oracle, testPairs []traj.PairKey) (*EvalReport, error) {
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
		truth, err := pairTruth(obs, oracle, k)
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

		if pairLabel(kb, oracle, k) {
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

func pairTruth(obs *traj.ObservationStore, oracle Oracle, k traj.PairKey) (*hist.Hist, error) {
	if oracle != nil {
		return oracle.PairTruth(k)
	}
	return obs.PairSumHist(k)
}

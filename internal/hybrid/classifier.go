package hybrid

import (
	"errors"
	"fmt"

	"stochroute/internal/ml"
	"stochroute/internal/traj"
)

// ClassifierMode selects how the hybrid model routes each extension.
type ClassifierMode int

// Classifier modes: Auto consults the learned classifier (the paper's
// hybrid behaviour); the forced modes are the paper's implicit baselines
// and our ablations.
const (
	Auto ClassifierMode = iota
	AlwaysConvolve
	AlwaysEstimate
)

// String implements fmt.Stringer.
func (m ClassifierMode) String() string {
	switch m {
	case Auto:
		return "auto"
	case AlwaysConvolve:
		return "always-convolve"
	case AlwaysEstimate:
		return "always-estimate"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Classifier is the trained convolve-vs-estimate decision model.
type Classifier struct {
	LR        *ml.LogisticRegression
	Scaler    *ml.StandardScaler
	Threshold float64
}

// PredictDependent reports whether the pair should be treated as
// dependent (use estimation). It runs once per classified extension of
// a search and allocates nothing.
func (c *Classifier) PredictDependent(ps PairStats) bool {
	row := classifierRow(ps)
	c.Scaler.TransformRow(row[:])
	return c.LR.Predict(row[:], c.Threshold)
}

// TrainClassifier fits the classifier from chi-square dependence labels
// over the given pairs: a pair is dependent when its table entry's
// PValue is below alpha, and pairs without an entry are skipped. It
// returns the classifier plus its training-set confusion for reporting.
func TrainClassifier(kb *KnowledgeBase, pairs []traj.PairKey) (*Classifier, ml.Confusion, error) {
	var zero ml.Confusion
	if len(pairs) == 0 {
		return nil, zero, errors.New("hybrid: no pairs to train classifier on")
	}
	rows := make([][]float64, 0, len(pairs))
	labels := make([]float64, 0, len(pairs))
	for _, k := range pairs {
		ps, ok := kb.Pair(k.First, k.Second)
		if !ok {
			continue
		}
		rows = append(rows, ClassifierFeatures(ps))
		labels = append(labels, boolTo01(ps.PValue < alpha))
	}
	if len(rows) == 0 {
		return nil, zero, errors.New("hybrid: classifier training produced no usable pairs")
	}
	x, err := ml.FromRows(rows)
	if err != nil {
		return nil, zero, err
	}
	scaler, err := ml.FitScaler(x)
	if err != nil {
		return nil, zero, err
	}
	xs := scaler.Transform(x)
	lr, err := ml.FitLogReg(xs, labels)
	if err != nil {
		return nil, zero, err
	}
	clf := &Classifier{LR: lr, Scaler: scaler, Threshold: 0.5}
	probs := make([]float64, xs.Rows)
	for i := 0; i < xs.Rows; i++ {
		probs[i] = lr.PredictProb(xs.Row(i))
	}
	conf, err := ml.EvaluateBinary(probs, labels, clf.Threshold)
	if err != nil {
		return nil, zero, err
	}
	return clf, conf, nil
}

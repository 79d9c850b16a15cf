package hybrid

import (
	"errors"
	"fmt"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/ml"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// EstimatorConfig parameterises the distribution-estimation model.
type EstimatorConfig struct {
	// Bands is the number of quantile bands of the incoming (virtual)
	// distribution that the outgoing conditional is predicted for.
	Bands int
	// CondBuckets is the number of grid buckets of each predicted
	// conditional distribution, measured as offsets from the outgoing
	// edge's optimistic travel time.
	CondBuckets int
	// Hidden lists hidden layer widths of the MLP.
	Hidden []int
	// Train configures the fitting loop.
	Train ml.TrainConfig
}

// DefaultEstimatorConfig is the estimator hybrid.DefaultConfig trains:
// 4 bands × 24 conditional buckets behind two hidden layers of 64.
func DefaultEstimatorConfig() EstimatorConfig {
	return EstimatorConfig{
		Bands:       4,
		CondBuckets: 24,
		Hidden:      []int{64, 64},
		Train:       ml.DefaultTrainConfig(),
	}
}

// Validate reports whether the config is usable.
func (c EstimatorConfig) Validate() error {
	if c.Bands < 1 {
		return fmt.Errorf("hybrid: Bands %d must be >= 1", c.Bands)
	}
	if c.CondBuckets < 2 {
		return fmt.Errorf("hybrid: CondBuckets %d must be >= 2", c.CondBuckets)
	}
	for i, h := range c.Hidden {
		if h <= 0 {
			return fmt.Errorf("hybrid: Hidden[%d] = %d must be positive", i, h)
		}
	}
	return nil
}

// Estimator is the trained distribution-estimation model: an MLP mapping
// Features to Bands×CondBuckets grouped-softmax conditionals.
type Estimator struct {
	Cfg    EstimatorConfig
	Net    *ml.Network
	Scaler *ml.StandardScaler
	Width  float64 // histogram grid width the model was trained on
}

// Predict returns the band-conditional distributions for one feature
// vector: a Bands×CondBuckets matrix of probabilities, each row a
// distribution over travel-time offsets (in buckets) from the outgoing
// edge's optimistic time.
//
// Softmax outputs are clipped below clipAbs/clipRel·max and
// renormalised: a softmax never emits exact zeros, and the spurious
// smear — harmless on a single pair — compounds into a systematic
// rightward drift over the dozens of extensions of a long path.
//
// Predict is read-only (it uses the network's allocation-free row
// inference pass, which is bit-identical to the batched Infer) and safe
// for concurrent use. The per-search serving path is predictInto, which
// computes the same values into scratch buffers; Predict allocates
// fresh ones.
func (e *Estimator) Predict(features []float64) [][]float64 {
	row := append([]float64(nil), features...)
	e.Scaler.TransformRow(row)
	var s ml.InferScratch
	logits := e.Net.InferRow(&s, row)
	ml.GroupedSoftmaxRow(logits, e.Cfg.Bands)
	out := make([][]float64, e.Cfg.Bands)
	for b := 0; b < e.Cfg.Bands; b++ {
		cond := append([]float64(nil), logits[b*e.Cfg.CondBuckets:(b+1)*e.Cfg.CondBuckets]...)
		clipConditional(cond)
		out[b] = cond
	}
	return out
}

// predictInto is Predict writing into the scratch's buffers: row
// scaling happens in place on the caller-owned feature vector, the MLP
// runs through the scratch's activation buffers, and the clipped
// conditionals live in s.condBuf. The returned views are valid until
// the next predictInto with the same scratch.
func (e *Estimator) predictInto(s *Scratch, row []float64) [][]float64 {
	e.Scaler.TransformRow(row)
	logits := e.Net.InferRow(&s.infer, row)
	ml.GroupedSoftmaxRow(logits, e.Cfg.Bands)
	cb := e.Cfg.CondBuckets
	need := e.Cfg.Bands * cb
	if cap(s.condBuf) < need {
		s.condBuf = make([]float64, need)
	}
	s.condBuf = s.condBuf[:need]
	copy(s.condBuf, logits)
	if cap(s.conds) < e.Cfg.Bands {
		s.conds = make([][]float64, e.Cfg.Bands)
	}
	s.conds = s.conds[:e.Cfg.Bands]
	for b := range s.conds {
		cond := s.condBuf[b*cb : (b+1)*cb]
		clipConditional(cond)
		s.conds[b] = cond
	}
	return s.conds
}

// Clipping thresholds for predicted conditionals (see Predict).
const (
	clipAbs = 0.004
	clipRel = 0.02
)

func clipConditional(p []float64) {
	max := 0.0
	for _, v := range p {
		if v > max {
			max = v
		}
	}
	cut := clipAbs
	if rel := clipRel * max; rel > cut {
		cut = rel
	}
	total := 0.0
	for i, v := range p {
		if v < cut {
			p[i] = 0
		} else {
			total += v
		}
	}
	if total <= 0 {
		// Degenerate: keep the argmax.
		for i, v := range p {
			if v == max {
				p[i] = 1
				return
			}
		}
		return
	}
	for i := range p {
		p[i] /= total
	}
}

// buildEstimatorDataset converts the training pairs into (features,
// weighted band-conditional target) rows. For pair (e1, e2) the virtual
// edge is e1's empirical marginal; the target bins each joint
// observation's T2 into (band of T1, offset of T2 from e2's optimistic
// time).
func buildEstimatorDataset(kb *KnowledgeBase, obs *traj.ObservationStore, pairs []traj.PairKey, cfg EstimatorConfig) (x, y *ml.Matrix, err error) {
	if len(pairs) == 0 {
		return nil, nil, errors.New("hybrid: no training pairs for estimator")
	}
	outDim := cfg.Bands * cfg.CondBuckets
	x = ml.NewMatrix(len(pairs), NumFeatures)
	y = ml.NewMatrix(len(pairs), outDim)
	for i, k := range pairs {
		ps, hasPair := kb.Pair(k.First, k.Second)
		marg1 := kb.Edge(k.First).Marginal
		feats := Features(kb, marg1, k.Second, ps, hasPair)
		copy(x.Row(i), feats)

		base2 := kb.Edge(k.Second).MinTime
		list := obs.Pairs[k]
		if len(list) == 0 {
			return nil, nil, fmt.Errorf("hybrid: training pair (%d,%d) has no observations", k.First, k.Second)
		}
		row := y.Row(i)
		for _, o := range list {
			b := BandOfValue(marg1, o.T1, cfg.Bands)
			off := int((o.T2-base2)/kb.Width + 0.5)
			if off < 0 {
				off = 0
			}
			if off >= cfg.CondBuckets {
				off = cfg.CondBuckets - 1
			}
			row[b*cfg.CondBuckets+off]++
		}
		total := float64(len(list))
		for j := range row {
			row[j] /= total
		}
	}
	return x, y, nil
}

// TrainEstimator fits the estimation model on the given pairs.
func TrainEstimator(kb *KnowledgeBase, obs *traj.ObservationStore, pairs []traj.PairKey, cfg EstimatorConfig) (*Estimator, ml.TrainResult, error) {
	var zero ml.TrainResult
	if err := cfg.Validate(); err != nil {
		return nil, zero, err
	}
	x, y, err := buildEstimatorDataset(kb, obs, pairs, cfg)
	if err != nil {
		return nil, zero, err
	}
	return trainEstimatorOn(kb, x, y, cfg)
}

// trainEstimatorOn fits a fresh estimator on an assembled dataset.
func trainEstimatorOn(kb *KnowledgeBase, x, y *ml.Matrix, cfg EstimatorConfig) (*Estimator, ml.TrainResult, error) {
	var zero ml.TrainResult
	scaler, err := ml.FitScaler(x)
	if err != nil {
		return nil, zero, err
	}
	xs := scaler.Transform(x)

	sizes := append([]int{NumFeatures}, cfg.Hidden...)
	sizes = append(sizes, cfg.Bands*cfg.CondBuckets)
	net, err := ml.NewMLP(sizes, rng.New(cfg.Train.Seed^0x5eed))
	if err != nil {
		return nil, zero, err
	}
	res, err := ml.Fit(net, xs, y, ml.GroupedSoftmaxCrossEntropy(cfg.Bands), cfg.Train)
	if err != nil {
		return nil, zero, err
	}
	return &Estimator{Cfg: cfg, Net: net, Scaler: scaler, Width: kb.Width}, res, nil
}

// concatRows stacks two datasets with identical column counts; either
// may be nil.
func concatRows(a, b *ml.Matrix) *ml.Matrix {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := ml.NewMatrix(a.Rows+b.Rows, a.Cols)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

// EstimateExtend combines the virtual distribution with the outgoing
// edge using the band-conditional predictions: the result is
// Σ_bands (virtual|band) ⊗ conditional(band), i.e. the estimated
// dependent joint cost of pre-path + edge.
func (e *Estimator) EstimateExtend(kb *KnowledgeBase, virtual *hist.Hist, next graph.EdgeID, ps PairStats, hasPair bool) *hist.Hist {
	feats := Features(kb, virtual, next, ps, hasPair)
	conds := e.Predict(feats)
	parts := BandWeights(virtual, e.Cfg.Bands)
	h := hist.New(virtual.Min+kb.Edge(next).MinTime, kb.Width,
		make([]float64, len(virtual.P)+e.Cfg.CondBuckets-1))
	e.accumulateBands(h, conds, parts, virtual)
	return h.Trim()
}

// EstimateExtendInto is EstimateExtend through the scratch: features,
// MLP activations, conditionals and band partitions reuse the
// scratch's buffers and the result lives in its arena. The arithmetic
// is shared with EstimateExtend, so both paths produce bit-identical
// distributions.
func (e *Estimator) EstimateExtendInto(s *Scratch, kb *KnowledgeBase, virtual *hist.Hist, next graph.EdgeID, ps PairStats, hasPair bool) *hist.Hist {
	s.feats = AppendFeatures(s.feats[:0], kb, virtual, next, ps, hasPair)
	conds := e.predictInto(s, s.feats)
	s.parts = BandWeightsInto(s.parts[:0], virtual, e.Cfg.Bands)
	h := s.Arena.NewHistZeroed(virtual.Min+kb.Edge(next).MinTime, kb.Width,
		len(virtual.P)+e.Cfg.CondBuckets-1)
	e.accumulateBands(h, conds, s.parts, virtual)
	return h.TrimInPlace()
}

// accumulateBands adds Σ_bands (virtual|band) ⊗ conditional(band) into
// h's (zeroed) mass vector on the common output grid, whose largest
// index is (len(virtual)-1) + (CondBuckets-1).
func (e *Estimator) accumulateBands(h *hist.Hist, conds [][]float64, parts []BandPart, virtual *hist.Hist) {
	out := h.P
	width := h.Width // == kb.Width: the grid every routing histogram lives on
	for b, part := range parts {
		if part.Mass <= 0 || part.P == nil {
			continue
		}
		offPart := int((part.Min-virtual.Min)/width + 0.5)
		cond := conds[b]
		for i, pm := range part.P {
			if pm == 0 {
				continue
			}
			for j, cm := range cond {
				out[offPart+i+j] += pm * cm
			}
		}
	}
}

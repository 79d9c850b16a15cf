package ml

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/rng"
)

// LossFunc computes a scalar loss for a batch and writes the gradient
// wrt the network output into grad, reusing grad's storage. A LossFunc
// keeps no state between calls, so concurrent Fits may share one.
type LossFunc func(output, target, grad *Matrix) float64

// TrainConfig parameterises Fit.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	WeightDecay  float64
	ValFraction  float64 // fraction of rows held out for early stopping
	Patience     int     // epochs without val improvement before stopping (0 = no early stop)
	Seed         uint64
	Verbose      bool
	LogEvery     int                  // epochs between progress logs when Verbose
	Logf         func(string, ...any) // defaults to no-op
}

// DefaultTrainConfig returns sensible defaults for the estimation model.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       120,
		BatchSize:    64,
		LearningRate: 1e-3,
		ValFraction:  0.1,
		Patience:     12,
		Seed:         1,
		LogEvery:     10,
	}
}

// TrainResult summarises a Fit run.
type TrainResult struct {
	Epochs       int
	FinalTrain   float64
	BestVal      float64
	StoppedEarly bool
}

// trainStep is one training run's working memory and its mini-batch
// step: a TrainScratch per layer, a gradient tensor per parameter, the
// gathered batch and the loss gradient. The network holds none of it,
// so once the run drops its trainStep the network is what a freshly
// read one would be. Every buffer is the step's own, so once each has
// grown to the batch size a step allocates nothing.
type trainStep struct {
	layers        []Layer
	scratch       []TrainScratch
	layerGrads    [][]*Matrix // per layer, parallel to its Params
	params, grads []*Matrix   // parallel to Network.Params
	opt           *Adam
	loss          LossFunc
	bx, by, grad  Matrix
}

func newTrainStep(net *Network, loss LossFunc, opt *Adam) *trainStep {
	s := &trainStep{
		layers:     net.Layers,
		scratch:    make([]TrainScratch, len(net.Layers)),
		layerGrads: make([][]*Matrix, len(net.Layers)),
		params:     net.Params(),
		opt:        opt,
		loss:       loss,
	}
	for i, l := range net.Layers {
		for _, p := range l.Params() {
			g := NewMatrix(p.Rows, p.Cols)
			s.layerGrads[i] = append(s.layerGrads[i], g)
			s.grads = append(s.grads, g)
		}
	}
	return s
}

// forward runs the batch through every layer. The result aliases the
// step's buffers and is valid until the next forward; x must not change
// until the matching backward has returned.
func (s *trainStep) forward(x *Matrix) *Matrix {
	for i, l := range s.layers {
		x = l.Forward(&s.scratch[i], x)
	}
	return x
}

// backward propagates the output gradient of the last forward's batch
// through every layer, adding the parameter gradients into s.grads.
// Nothing reads the first layer's input gradient, so it is not computed.
func (s *trainStep) backward(gradOut *Matrix) {
	for i := len(s.layers) - 1; i >= 0; i-- {
		gradOut = s.layers[i].Backward(&s.scratch[i], gradOut, s.layerGrads[i], i > 0)
	}
}

// run gathers rows of (x, y), runs them forward, takes the loss, runs
// its gradient backward and lets Adam update the parameters. It returns
// the batch's loss; one that is not finite is returned before any
// parameter moves.
func (s *trainStep) run(x, y *Matrix, rows []int) float64 {
	x.subRowsInto(&s.bx, rows)
	y.subRowsInto(&s.by, rows)
	for _, g := range s.grads {
		g.Zero()
	}
	l := s.loss(s.forward(&s.bx), &s.by, &s.grad)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		return l
	}
	s.backward(&s.grad)
	s.opt.Step(s.params, s.grads)
	return l
}

// eval returns the loss on (x, y) without training.
func (s *trainStep) eval(x, y *Matrix) float64 {
	return s.loss(s.forward(x), y, &s.grad)
}

// Fit trains net on (x, y) with Adam, mini-batching and early stopping
// on a held-out validation split. It returns an error on shape problems
// or non-finite losses (diverged training). Its working memory belongs
// to the call: the trained network holds only its parameters.
func Fit(net *Network, x, y *Matrix, loss LossFunc, cfg TrainConfig) (TrainResult, error) {
	var res TrainResult
	if x.Rows != y.Rows {
		return res, fmt.Errorf("ml: Fit with %d inputs but %d targets", x.Rows, y.Rows)
	}
	if x.Rows == 0 {
		return res, errors.New("ml: Fit with no data")
	}
	if cfg.Epochs <= 0 {
		return res, errors.New("ml: Fit with non-positive epochs")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	r := rng.New(cfg.Seed)

	// Split train/validation.
	perm := r.Perm(x.Rows)
	nVal := int(float64(x.Rows) * cfg.ValFraction)
	if nVal > 0 && x.Rows-nVal < 1 {
		nVal = 0
	}
	valIdx, trainIdx := perm[:nVal], perm[nVal:]
	xt, yt := x.SubRows(trainIdx), y.SubRows(trainIdx)
	var xv, yv *Matrix
	if nVal > 0 {
		xv, yv = x.SubRows(valIdx), y.SubRows(valIdx)
	}

	opt := NewAdam(cfg.LearningRate)
	opt.WeightDecay = cfg.WeightDecay
	step := newTrainStep(net, loss, opt)
	best := math.Inf(1)
	bestParams := snapshot(step.params)
	sinceBest := 0

	order := make([]int, xt.Rows)
	for i := range order {
		order[i] = i
	}
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		r.ShuffleInts(order)
		trainLoss := 0.0
		batches := 0
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			l := step.run(xt, yt, order[start:end])
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return res, fmt.Errorf("ml: training diverged at epoch %d (loss %v)", epoch, l)
			}
			trainLoss += l
			batches++
		}
		trainLoss /= float64(batches)
		res.Epochs = epoch
		res.FinalTrain = trainLoss

		valLoss := trainLoss
		if xv != nil {
			valLoss = step.eval(xv, yv)
		}
		if valLoss < best-1e-9 {
			best = valLoss
			copyParams(bestParams, step.params)
			sinceBest = 0
		} else {
			sinceBest++
		}
		if cfg.Verbose && (cfg.LogEvery <= 1 || epoch%cfg.LogEvery == 0) {
			logf("ml: epoch %d train=%.5f val=%.5f best=%.5f", epoch, trainLoss, valLoss, best)
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			res.StoppedEarly = true
			break
		}
	}
	copyParams(step.params, bestParams)
	res.BestVal = best
	return res, nil
}

func snapshot(params []*Matrix) []*Matrix {
	out := make([]*Matrix, len(params))
	for i, p := range params {
		out[i] = p.Clone()
	}
	return out
}

// copyParams copies every tensor of src into the parallel one of dst.
func copyParams(dst, src []*Matrix) {
	for i, p := range src {
		copy(dst[i].Data, p.Data)
	}
}

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

// TrainConfig parameterises Fit. Start from DefaultTrainConfig, which
// fixes the batch size, learning rate, validation split and seed.
type TrainConfig struct {
	Epochs   int
	Patience int                  // epochs without val improvement before stopping (0 = no early stop)
	Logf     func(string, ...any) // progress every logEvery epochs; nil logs nothing

	batchSize    int
	learningRate float64
	valFraction  float64 // fraction of rows held out for early stopping
	seed         uint64
}

const logEvery = 10 // epochs between progress logs

// DefaultTrainConfig returns sensible defaults for the estimation model.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Epochs:       120,
		Patience:     12,
		batchSize:    64,
		learningRate: 1e-3,
		valFraction:  0.1,
		seed:         1,
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
// step: a layerScratch per layer, a gradient tensor per parameter, the
// gathered batch and the loss gradient. The network holds none of it,
// so once the run drops its trainStep the network is what a freshly
// read one would be. Every buffer is the step's own, so once each has
// grown to the batch size a step allocates nothing.
type trainStep struct {
	net           *Network
	scratch       []layerScratch
	params, grads []*Matrix // parallel: layer i's W and B are 2i and 2i+1
	opt           *Adam
	loss          LossFunc
	bx, by, grad  Matrix
}

// layerScratch is one layer's buffers in a training step.
type layerScratch struct {
	in     *Matrix // the layer's input: the batch, or the layer before's out
	out    Matrix  // x·W + b, rectified in place on a hidden layer
	gradIn Matrix  // the gradient wrt in
	tr     Matrix  // a transposed operand of backward's products
}

func newTrainStep(net *Network, loss LossFunc, opt *Adam) *trainStep {
	s := &trainStep{
		net:     net,
		scratch: make([]layerScratch, len(net.Layers)),
		params:  net.Params(),
		opt:     opt,
		loss:    loss,
	}
	for _, p := range s.params {
		s.grads = append(s.grads, NewMatrix(p.Rows, p.Cols))
	}
	return s
}

// forward runs the batch through every layer. The result aliases the
// step's buffers and is valid until the next forward; x must not change
// until the matching backward has returned.
func (s *trainStep) forward(x *Matrix) *Matrix {
	for i, d := range s.net.Layers {
		ls := &s.scratch[i]
		ls.in = x
		x = d.forwardInto(&ls.out, x)
		if s.net.hidden(i) {
			relu(x.Data)
		}
	}
	return x
}

// backward propagates the output gradient of the last forward's batch
// through every layer, adding the parameter gradients into s.grads: W's
// is inᵀ·gradOut, B's the column sums of gradOut. The gradient wrt a
// hidden layer's output is gradOut·Wᵀ of the layer after it, masked
// where the rectified output is zero. Nothing reads the first layer's
// input gradient, so it is not computed.
func (s *trainStep) backward(gradOut *Matrix) {
	for i := len(s.net.Layers) - 1; i >= 0; i-- {
		d, ls := s.net.Layers[i], &s.scratch[i]
		matMulAdd(s.grads[2*i], transposeInto(&ls.tr, ls.in), gradOut)
		gradOut.AddColSums(s.grads[2*i+1].Data)
		if i == 0 {
			return
		}
		gradOut = matMulInto(&ls.gradIn, gradOut, transposeInto(&ls.tr, d.W))
		for j, v := range ls.in.Data {
			if v == 0 {
				gradOut.Data[j] = 0
			}
		}
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
	if cfg.batchSize <= 0 {
		cfg.batchSize = 32
	}
	r := rng.New(cfg.seed)

	// Split train/validation.
	perm := r.Perm(x.Rows)
	nVal := int(float64(x.Rows) * cfg.valFraction)
	if nVal > 0 && x.Rows-nVal < 1 {
		nVal = 0
	}
	valIdx, trainIdx := perm[:nVal], perm[nVal:]
	xt, yt := x.SubRows(trainIdx), y.SubRows(trainIdx)
	var xv, yv *Matrix
	if nVal > 0 {
		xv, yv = x.SubRows(valIdx), y.SubRows(valIdx)
	}

	step := newTrainStep(net, loss, NewAdam(cfg.learningRate))
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
		for start := 0; start < len(order); start += cfg.batchSize {
			end := start + cfg.batchSize
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
		if cfg.Logf != nil && epoch%logEvery == 0 {
			cfg.Logf("ml: epoch %d train=%.5f val=%.5f best=%.5f", epoch, trainLoss, valLoss, best)
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

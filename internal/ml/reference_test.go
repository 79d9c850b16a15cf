package ml

import (
	"fmt"
	"math"
	"testing"

	"stochroute/internal/rng"
)

// The reference below is the allocating training path this package ran
// before the kernels and buffers were shared: three hand-written product
// loops, layers that cache their inputs and gradients, a loss that
// returns a fresh gradient and a Fit that allocates per batch. The tests
// pin the current code to it bit for bit.

func refMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulATB(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

func refMatMulABT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		for j := 0; j < b.Rows; j++ {
			brow := b.Data[j*b.Cols : (j+1)*b.Cols]
			s := 0.0
			for k, av := range arow {
				s += av * brow[k]
			}
			out.Data[i*out.Cols+j] = s
		}
	}
	return out
}

func refColSums(m *Matrix) []float64 {
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			out[j] += v
		}
	}
	return out
}

func refGroupedSoftmax(logits *Matrix, groups int) *Matrix {
	width := logits.Cols / groups
	out := logits.Clone()
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		for g := 0; g < groups; g++ {
			block := row[g*width : (g+1)*width]
			max := block[0]
			for _, v := range block {
				if v > max {
					max = v
				}
			}
			sum := 0.0
			for j, v := range block {
				e := math.Exp(v - max)
				block[j] = e
				sum += e
			}
			for j := range block {
				block[j] /= sum
			}
		}
	}
	return out
}

type refLoss func(output, target *Matrix) (float64, *Matrix)

func refGroupedSoftmaxCrossEntropy(groups int) refLoss {
	return func(logits, target *Matrix) (float64, *Matrix) {
		width := logits.Cols / groups
		probs := refGroupedSoftmax(logits, groups)
		grad := NewMatrix(logits.Rows, logits.Cols)
		loss := 0.0
		invN := 1 / float64(logits.Rows)
		for i := 0; i < logits.Rows; i++ {
			prow, trow, grow := probs.Row(i), target.Row(i), grad.Row(i)
			for g := 0; g < groups; g++ {
				blockMass := 0.0
				for j := g * width; j < (g+1)*width; j++ {
					blockMass += trow[j]
				}
				for j := g * width; j < (g+1)*width; j++ {
					if trow[j] > 0 {
						loss -= trow[j] * math.Log(math.Max(prow[j], 1e-300))
					}
					grow[j] = (prow[j]*blockMass - trow[j]) * invN
				}
			}
		}
		return loss * invN, grad
	}
}

type refLayer interface {
	Forward(x *Matrix) *Matrix
	Backward(gradOut *Matrix) *Matrix
	Params() []*Matrix
	Grads() []*Matrix
}

type refDense struct {
	W, B, gW, gB, lastX *Matrix
}

func (d *refDense) Forward(x *Matrix) *Matrix {
	d.lastX = x
	out := refMatMul(x, d.W)
	out.AddRowVectorInPlace(d.B.Data)
	return out
}

func (d *refDense) Backward(gradOut *Matrix) *Matrix {
	for i, v := range refMatMulATB(d.lastX, gradOut).Data {
		d.gW.Data[i] += v
	}
	for j, v := range refColSums(gradOut) {
		d.gB.Data[j] += v
	}
	return refMatMulABT(gradOut, d.W)
}

func (d *refDense) Params() []*Matrix { return []*Matrix{d.W, d.B} }
func (d *refDense) Grads() []*Matrix  { return []*Matrix{d.gW, d.gB} }

type refReLU struct{ mask []bool }

func (a *refReLU) Forward(x *Matrix) *Matrix {
	out := x.Clone()
	a.mask = make([]bool, len(out.Data))
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		} else {
			a.mask[i] = true
		}
	}
	return out
}

func (a *refReLU) Backward(gradOut *Matrix) *Matrix {
	out := gradOut.Clone()
	for i := range out.Data {
		if !a.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

func (a *refReLU) Params() []*Matrix { return nil }
func (a *refReLU) Grads() []*Matrix  { return nil }

type refNetwork struct{ layers []refLayer }

// refCopy builds the reference twin of net, holding copies of its
// parameters: its dense layers with a ReLU between each two.
func refCopy(net *Network) *refNetwork {
	ref := &refNetwork{}
	for i, d := range net.Layers {
		if i > 0 {
			ref.layers = append(ref.layers, &refReLU{})
		}
		ref.layers = append(ref.layers, &refDense{
			W: d.W.Clone(), B: d.B.Clone(),
			gW: NewMatrix(d.W.Rows, d.W.Cols), gB: NewMatrix(1, d.B.Cols),
		})
	}
	return ref
}

func (n *refNetwork) forward(x *Matrix) *Matrix {
	for _, l := range n.layers {
		x = l.Forward(x)
	}
	return x
}

func (n *refNetwork) backward(g *Matrix) {
	for i := len(n.layers) - 1; i >= 0; i-- {
		g = n.layers[i].Backward(g)
	}
}

func (n *refNetwork) params() (out []*Matrix) {
	for _, l := range n.layers {
		out = append(out, l.Params()...)
	}
	return out
}

func (n *refNetwork) grads() (out []*Matrix) {
	for _, l := range n.layers {
		out = append(out, l.Grads()...)
	}
	return out
}

func refFit(net *refNetwork, x, y *Matrix, loss refLoss, cfg TrainConfig) (TrainResult, error) {
	var res TrainResult
	r := rng.New(cfg.seed)
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
	opt := NewAdam(cfg.learningRate)
	snap := func() (out [][]float64) {
		for _, p := range net.params() {
			out = append(out, append([]float64(nil), p.Data...))
		}
		return out
	}
	best := math.Inf(1)
	bestParams := snap()
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
			end := min(start+cfg.batchSize, len(order))
			bx, by := xt.SubRows(order[start:end]), yt.SubRows(order[start:end])
			for _, g := range net.grads() {
				g.Zero()
			}
			l, grad := loss(net.forward(bx), by)
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return res, fmt.Errorf("diverged at epoch %d", epoch)
			}
			net.backward(grad)
			opt.Step(net.params(), net.grads())
			trainLoss += l
			batches++
		}
		trainLoss /= float64(batches)
		res.Epochs = epoch
		res.FinalTrain = trainLoss
		valLoss := trainLoss
		if xv != nil {
			valLoss, _ = loss(net.forward(xv), yv)
		}
		if valLoss < best-1e-9 {
			best = valLoss
			bestParams = snap()
			sinceBest = 0
		} else {
			sinceBest++
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			res.StoppedEarly = true
			break
		}
	}
	for i, p := range net.params() {
		copy(p.Data, bestParams[i])
	}
	res.BestVal = best
	return res, nil
}

// randomSparse fills a rows×cols matrix with normal entries, about a
// third of them zero and some of those negative zeros.
func randomSparse(r *rng.RNG, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch r.Intn(6) {
		case 0:
		case 1:
			m.Data[i] = math.Copysign(0, -1)
		default:
			m.Data[i] = r.Normal(0, 1)
		}
	}
	return m
}

func sameBits(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, reference %v", label, i, got[i], want[i])
		}
	}
}

// TestMatMulKernelsMatchParentLoops: the one kernel, as a training step
// calls it for x·W, xᵀ·g (into zeroed gradients) and g·Wᵀ, gives the
// reference loops' bits at every shape from 1×1 to 9×9, with zero and
// negative-zero entries in both operands.
func TestMatMulKernelsMatchParentLoops(t *testing.T) {
	r := rng.New(41)
	var out, tr Matrix
	for m := 1; m <= 9; m++ {
		for k := 1; k <= 9; k++ {
			for n := 1; n <= 9; n++ {
				label := fmt.Sprintf("%dx%d·%dx%d", m, k, k, n)
				a, b := randomSparse(r, m, k), randomSparse(r, k, n)
				sameBits(t, "a·b "+label, matMulInto(&out, a, b).Data, refMatMul(a, b).Data)

				g := randomSparse(r, m, n) // a's rows × the output's columns
				gw := NewMatrix(k, n)
				sameBits(t, "aᵀ·g "+label, matMulAdd(gw, transposeInto(&tr, a), g).Data, refMatMulATB(a, g).Data)

				w := randomSparse(r, n, k)
				sameBits(t, "a·wᵀ "+label, matMulInto(&out, a, transposeInto(&tr, w)).Data, refMatMulABT(a, w).Data)

				gb := make([]float64, n)
				g.AddColSums(gb)
				sameBits(t, "column sums "+label, gb, refColSums(g))
			}
		}
	}
}

// estimatorLikeData draws n rows of the estimator's shape: 33 features,
// every fourth one a zero, and 4 weighted bands of 24 buckets.
func estimatorLikeData(r *rng.RNG, n int) (x, y *Matrix) {
	x, y = NewMatrix(n, 33), NewMatrix(n, 96)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			if j%4 != 0 {
				row[j] = r.Normal(0, 1)
			}
		}
		trow := y.Row(i)
		for g := 0; g < 4; g++ {
			w := r.Float64()
			trow[g*24+r.Intn(24)] += w / 2
			trow[g*24+r.Intn(24)] += w / 2
		}
	}
	return x, y
}

// TestFitMatchesParentReference: Fit leaves every parameter and the
// TrainResult with the reference Fit's bits, on the estimator's shape
// (a partial last batch, early stopping) and on a small MLP (one softmax
// group, partial batches, no early stop).
func TestFitMatchesParentReference(t *testing.T) {
	check := func(t *testing.T, net *Network, x, y *Matrix, groups int, cfg TrainConfig, wantEarly bool) {
		t.Helper()
		ref := refCopy(net)
		want, err := refFit(ref, x, y, refGroupedSoftmaxCrossEntropy(groups), cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Fit(net, x, y, GroupedSoftmaxCrossEntropy(groups), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Epochs != want.Epochs || got.StoppedEarly != want.StoppedEarly ||
			math.Float64bits(got.FinalTrain) != math.Float64bits(want.FinalTrain) ||
			math.Float64bits(got.BestVal) != math.Float64bits(want.BestVal) {
			t.Fatalf("TrainResult %+v, reference %+v", got, want)
		}
		if got.StoppedEarly != wantEarly {
			t.Fatalf("StoppedEarly = %v after %d epochs, want %v: the case does not exercise what it names", got.StoppedEarly, got.Epochs, wantEarly)
		}
		for i, p := range net.Params() {
			sameBits(t, fmt.Sprintf("param %d", i), p.Data, ref.params()[i].Data)
		}
	}

	t.Run("estimator", func(t *testing.T) {
		r := rng.New(5)
		net, err := NewMLP([]int{33, 64, 64, 96}, r)
		if err != nil {
			t.Fatal(err)
		}
		// 250 rows: 25 held out, 225 = 3 × 64 + a batch of 33.
		x, y := estimatorLikeData(r, 250)
		cfg := TrainConfig{Epochs: 80, batchSize: 64, learningRate: 1e-2, valFraction: 0.1, Patience: 3, seed: 6}
		check(t, net, x, y, 4, cfg, true)
	})
	t.Run("mlp", func(t *testing.T) {
		r := rng.New(7)
		net, err := NewMLP([]int{5, 12, 7, 3}, r)
		if err != nil {
			t.Fatal(err)
		}
		// 90 rows: 18 held out, 72 = 4 × 16 + a batch of 8.
		x := randomSparse(r, 90, 5)
		y := NewMatrix(90, 3)
		for i := 0; i < y.Rows; i++ {
			y.Row(i)[r.Intn(3)] = 1
		}
		cfg := TrainConfig{Epochs: 15, batchSize: 16, learningRate: 5e-3, valFraction: 0.2, seed: 8}
		check(t, net, x, y, 1, cfg, false)
	})
}

// TestTrainStepAllocFree: once its buffers have grown to the batch, a
// training step — gather, forward, loss, backward, Adam — allocates
// nothing, the way InferRow allocates nothing on a warm scratch.
func TestTrainStepAllocFree(t *testing.T) {
	r := rng.New(9)
	net, err := NewMLP([]int{33, 64, 64, 96}, r)
	if err != nil {
		t.Fatal(err)
	}
	x, y := estimatorLikeData(r, 200)
	step := newTrainStep(net, GroupedSoftmaxCrossEntropy(4), NewAdam(1e-3))
	rows := r.Perm(x.Rows)[:64]
	step.run(x, y, rows) // warm the buffers and Adam's moments
	allocs := testing.AllocsPerRun(20, func() {
		step.run(x, y, rows)
	})
	if allocs != 0 {
		t.Errorf("a warm training step allocates %v times", allocs)
	}
}

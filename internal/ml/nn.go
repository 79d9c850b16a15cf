package ml

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/rng"
)

// Layer is one differentiable stage of a network. A layer holds only
// its parameters; what a training step writes lives in a TrainScratch
// the caller owns — one per layer per training run — so a trained
// network carries nothing from training, and any number of goroutines
// may Infer on a layer nobody trains.
//
// Aliasing: Forward's result is s's output buffer and Backward's is s's
// input-gradient buffer. Each stays valid until the next Forward
// (respectively Backward) with the same s; a caller that keeps one
// longer copies it. Forward may keep a reference to its input x, which
// must not change until the matching Backward has returned.
type Layer interface {
	// Forward maps a batch (rows = samples) to the layer output, into
	// s, recording there what Backward needs. Its result is bit-identical
	// to Infer's.
	Forward(s *TrainScratch, x *Matrix) *Matrix
	// Infer computes Forward's output into a fresh matrix without
	// touching any state; safe for concurrent use.
	Infer(x *Matrix) *Matrix
	// Backward maps the gradient wrt the layer output of the batch the
	// last Forward with s saw to the gradient wrt the layer input, adding
	// the parameter gradients into grads (parallel to Params). With
	// needIn false it skips the input gradient and returns nil.
	Backward(s *TrainScratch, gradOut *Matrix, grads []*Matrix, needIn bool) *Matrix
	// Params returns parameter tensors (possibly none).
	Params() []*Matrix
}

// TrainScratch is one layer's working memory in a training run: the
// buffers its Forward and Backward write and the input Forward saw. The
// zero value is ready to use; it is not safe for concurrent use.
type TrainScratch struct {
	in     *Matrix // Forward's input, read by Backward
	out    Matrix  // Forward's result
	gradIn Matrix  // Backward's result
	tr     Matrix  // a transposed operand of Backward's products
}

// Dense is a fully connected layer: out = x·W + b.
type Dense struct {
	W, B *Matrix // W is in×out, B is 1×out
}

// NewDense returns a Dense layer with He-initialised weights.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{W: NewMatrix(in, out), B: NewMatrix(1, out)}
	std := math.Sqrt(2 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.Normal(0, std)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(s *TrainScratch, x *Matrix) *Matrix {
	s.in = x
	return d.forwardInto(&s.out, x)
}

// Infer implements Layer.
func (d *Dense) Infer(x *Matrix) *Matrix { return d.forwardInto(new(Matrix), x) }

func (d *Dense) forwardInto(out, x *Matrix) *Matrix {
	matMulInto(out, x, d.W)
	out.AddRowVectorInPlace(d.B.Data)
	return out
}

// Backward implements Layer: grads[0] += xᵀ·gradOut, grads[1] += the
// column sums of gradOut, and the input gradient is gradOut·Wᵀ.
func (d *Dense) Backward(s *TrainScratch, gradOut *Matrix, grads []*Matrix, needIn bool) *Matrix {
	matMulAdd(grads[0], transposeInto(&s.tr, s.in), gradOut)
	gradOut.AddColSums(grads[1].Data)
	if !needIn {
		return nil
	}
	return matMulInto(&s.gradIn, gradOut, transposeInto(&s.tr, d.W))
}

// Params implements Layer.
func (d *Dense) Params() []*Matrix { return []*Matrix{d.W, d.B} }

// ReLU is the rectified linear activation.
type ReLU struct{}

// Forward implements Layer.
func (a *ReLU) Forward(s *TrainScratch, x *Matrix) *Matrix { return reluInto(&s.out, x) }

// Infer implements Layer.
func (a *ReLU) Infer(x *Matrix) *Matrix { return reluInto(new(Matrix), x) }

func reluInto(out, x *Matrix) *Matrix {
	out.reshape(x.Rows, x.Cols)
	for i, v := range x.Data {
		if v <= 0 {
			v = 0
		}
		out.Data[i] = v
	}
	return out
}

// Backward implements Layer. An input passed through exactly where
// Forward's output is non-zero (v <= 0 wrote a zero; a positive or NaN
// v is itself), so that output is the mask.
func (a *ReLU) Backward(s *TrainScratch, gradOut *Matrix, _ []*Matrix, needIn bool) *Matrix {
	if !needIn {
		return nil
	}
	s.gradIn.reshape(gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		if s.out.Data[i] == 0 {
			g = 0
		}
		s.gradIn.Data[i] = g
	}
	return &s.gradIn
}

// Params implements Layer.
func (a *ReLU) Params() []*Matrix { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct{}

// Forward implements Layer.
func (a *Tanh) Forward(s *TrainScratch, x *Matrix) *Matrix { return tanhInto(&s.out, x) }

// Infer implements Layer.
func (a *Tanh) Infer(x *Matrix) *Matrix { return tanhInto(new(Matrix), x) }

func tanhInto(out, x *Matrix) *Matrix {
	out.reshape(x.Rows, x.Cols)
	copy(out.Data, x.Data)
	return out.Apply(math.Tanh)
}

// Backward implements Layer: the derivative 1 − y² reads Forward's
// output y.
func (a *Tanh) Backward(s *TrainScratch, gradOut *Matrix, _ []*Matrix, needIn bool) *Matrix {
	if !needIn {
		return nil
	}
	s.gradIn.reshape(gradOut.Rows, gradOut.Cols)
	for i, g := range gradOut.Data {
		y := s.out.Data[i]
		s.gradIn.Data[i] = g * (1 - y*y)
	}
	return &s.gradIn
}

// Params implements Layer.
func (a *Tanh) Params() []*Matrix { return nil }

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer
}

// NewMLP builds a multi-layer perceptron with the given layer sizes
// (sizes[0] inputs through sizes[len-1] outputs) and ReLU activations
// between dense layers. The output layer is linear (logits); pair with
// GroupedSoftmaxCrossEntropy for distribution targets.
func NewMLP(sizes []int, r *rng.RNG) (*Network, error) {
	if len(sizes) < 2 {
		return nil, errors.New("ml: NewMLP needs at least input and output sizes")
	}
	for i, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("ml: NewMLP size[%d]=%d must be positive", i, s)
		}
	}
	var n Network
	for i := 0; i+1 < len(sizes); i++ {
		n.Layers = append(n.Layers, NewDense(sizes[i], sizes[i+1], r))
		if i+2 < len(sizes) {
			n.Layers = append(n.Layers, &ReLU{})
		}
	}
	return &n, nil
}

// Infer runs the batch through all layers without mutating any layer
// state: the read-only batch forward pass. Any number of goroutines may
// call Infer on the same network concurrently, as long as none of them
// trains it.
func (n *Network) Infer(x *Matrix) *Matrix {
	for _, l := range n.Layers {
		x = l.Infer(x)
	}
	return x
}

// Params returns all parameter tensors in layer order.
func (n *Network) Params() []*Matrix {
	var out []*Matrix
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

package ml

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/rng"
)

// Layer is one differentiable stage of a network. Forward caches
// whatever Backward needs; Forward/Backward are therefore not safe for
// concurrent use by multiple goroutines. Infer is the pure counterpart:
// it computes the same output as Forward without touching layer state,
// so any number of goroutines may Infer on a shared layer.
type Layer interface {
	// Forward maps a batch (rows = samples) to the layer output.
	Forward(x *Matrix) *Matrix
	// Infer computes Forward's output without caching anything for
	// Backward; safe for concurrent use.
	Infer(x *Matrix) *Matrix
	// Backward maps the gradient wrt the layer output to the gradient
	// wrt the layer input, accumulating parameter gradients.
	Backward(gradOut *Matrix) *Matrix
	// Params returns parameter tensors (possibly none).
	Params() []*Matrix
	// Grads returns gradient tensors parallel to Params.
	Grads() []*Matrix
}

// Dense is a fully connected layer: out = x·W + b.
type Dense struct {
	W, B   *Matrix // W is in×out, B is 1×out
	gW, gB *Matrix
	lastX  *Matrix
}

// NewDense returns a Dense layer with He-initialised weights.
func NewDense(in, out int, r *rng.RNG) *Dense {
	d := &Dense{
		W:  NewMatrix(in, out),
		B:  NewMatrix(1, out),
		gW: NewMatrix(in, out),
		gB: NewMatrix(1, out),
	}
	std := math.Sqrt(2 / float64(in))
	for i := range d.W.Data {
		d.W.Data[i] = r.Normal(0, std)
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *Matrix) *Matrix {
	d.lastX = x
	return d.Infer(x)
}

// Infer implements Layer.
func (d *Dense) Infer(x *Matrix) *Matrix {
	out := MatMul(x, d.W)
	out.AddRowVectorInPlace(d.B.Data)
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *Matrix) *Matrix {
	gw := MatMulATB(d.lastX, gradOut)
	for i, v := range gw.Data {
		d.gW.Data[i] += v
	}
	for j, v := range gradOut.ColSums() {
		d.gB.Data[j] += v
	}
	return MatMulABT(gradOut, d.W)
}

// Params implements Layer.
func (d *Dense) Params() []*Matrix { return []*Matrix{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() []*Matrix { return []*Matrix{d.gW, d.gB} }

// ReLU is the rectified linear activation.
type ReLU struct {
	mask []bool
}

// Forward implements Layer.
func (a *ReLU) Forward(x *Matrix) *Matrix {
	out := x.Clone()
	if cap(a.mask) < len(out.Data) {
		a.mask = make([]bool, len(out.Data))
	}
	a.mask = a.mask[:len(out.Data)]
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
			a.mask[i] = false
		} else {
			a.mask[i] = true
		}
	}
	return out
}

// Infer implements Layer.
func (a *ReLU) Infer(x *Matrix) *Matrix {
	out := x.Clone()
	for i, v := range out.Data {
		if v <= 0 {
			out.Data[i] = 0
		}
	}
	return out
}

// Backward implements Layer.
func (a *ReLU) Backward(gradOut *Matrix) *Matrix {
	out := gradOut.Clone()
	for i := range out.Data {
		if !a.mask[i] {
			out.Data[i] = 0
		}
	}
	return out
}

// Params implements Layer.
func (a *ReLU) Params() []*Matrix { return nil }

// Grads implements Layer.
func (a *ReLU) Grads() []*Matrix { return nil }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOut *Matrix
}

// Forward implements Layer.
func (a *Tanh) Forward(x *Matrix) *Matrix {
	out := x.Clone().Apply(math.Tanh)
	a.lastOut = out
	return out
}

// Infer implements Layer.
func (a *Tanh) Infer(x *Matrix) *Matrix {
	return x.Clone().Apply(math.Tanh)
}

// Backward implements Layer.
func (a *Tanh) Backward(gradOut *Matrix) *Matrix {
	out := gradOut.Clone()
	for i := range out.Data {
		y := a.lastOut.Data[i]
		out.Data[i] *= 1 - y*y
	}
	return out
}

// Params implements Layer.
func (a *Tanh) Params() []*Matrix { return nil }

// Grads implements Layer.
func (a *Tanh) Grads() []*Matrix { return nil }

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

// Forward runs the batch through all layers and returns the output.
func (n *Network) Forward(x *Matrix) *Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Infer runs the batch through all layers without mutating any layer
// state: the read-only forward pass used at serving time. Any number of
// goroutines may call Infer on the same network concurrently, as long
// as none of them trains it.
func (n *Network) Infer(x *Matrix) *Matrix {
	for _, l := range n.Layers {
		x = l.Infer(x)
	}
	return x
}

// Backward propagates the output gradient through all layers,
// accumulating parameter gradients.
func (n *Network) Backward(gradOut *Matrix) {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		gradOut = n.Layers[i].Backward(gradOut)
	}
}

// ZeroGrads clears all accumulated parameter gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			g.Zero()
		}
	}
}

// Params returns all parameter tensors in layer order.
func (n *Network) Params() []*Matrix {
	var out []*Matrix
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// Grads returns all gradient tensors parallel to Params.
func (n *Network) Grads() []*Matrix {
	var out []*Matrix
	for _, l := range n.Layers {
		out = append(out, l.Grads()...)
	}
	return out
}

package ml

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/rng"
)

// Dense is a fully connected layer: out = x·W + b. It holds only its
// parameters; what a training step writes lives in the step's own
// buffers (trainer.go), so a trained network carries nothing from
// training.
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

// forwardInto sets out = x·W + b, reusing out's storage, and returns out.
func (d *Dense) forwardInto(out, x *Matrix) *Matrix {
	matMulInto(out, x, d.W)
	out.AddRowVectorInPlace(d.B.Data)
	return out
}

// relu rectifies v in place: a v <= 0 becomes +0, a positive or NaN v
// stays. A rectified value is zero exactly where the gradient is
// masked, so the output is its own mask.
func relu(v []float64) {
	for i, x := range v {
		if x <= 0 {
			v[i] = 0
		}
	}
}

// Network is the one network shape: a multi-layer perceptron of dense
// layers with a ReLU after every layer but the last. The output layer is
// linear (logits); pair it with GroupedSoftmaxCrossEntropy for
// distribution targets.
type Network struct {
	Layers []*Dense
}

// NewMLP builds a multi-layer perceptron with the given layer sizes
// (sizes[0] inputs through sizes[len-1] outputs).
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
	}
	return &n, nil
}

// hidden reports whether layer i is followed by a ReLU.
func (n *Network) hidden(i int) bool { return i+1 < len(n.Layers) }

// Infer runs the batch through all layers into fresh matrices: the
// read-only batch forward pass. Any number of goroutines may call Infer
// on the same network concurrently, as long as none of them trains it.
func (n *Network) Infer(x *Matrix) *Matrix {
	for i, d := range n.Layers {
		x = d.forwardInto(new(Matrix), x)
		if n.hidden(i) {
			relu(x.Data)
		}
	}
	return x
}

// Params returns all parameter tensors in layer order: each layer's W,
// then its B.
func (n *Network) Params() []*Matrix {
	out := make([]*Matrix, 0, 2*len(n.Layers))
	for _, d := range n.Layers {
		out = append(out, d.W, d.B)
	}
	return out
}

package ml

import "math"

// Adam is the Adam optimiser (Kingma & Ba) with optional weight decay.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns Adam with conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update given parallel parameter and gradient tensor
// lists; the caller then zeroes the gradients.
func (o *Adam) Step(params, grads []*Matrix) {
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.Data))
			o.v[i] = make([]float64, len(p.Data))
		}
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i, p := range params {
		g := grads[i]
		for j := range p.Data {
			gj := g.Data[j] + o.WeightDecay*p.Data[j]
			o.m[i][j] = o.Beta1*o.m[i][j] + (1-o.Beta1)*gj
			o.v[i][j] = o.Beta2*o.v[i][j] + (1-o.Beta2)*gj*gj
			mHat := o.m[i][j] / c1
			vHat := o.v[i][j] / c2
			p.Data[j] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
	}
}

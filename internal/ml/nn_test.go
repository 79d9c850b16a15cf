package ml

import (
	"math"
	"testing"

	"stochroute/internal/rng"
)

// numericalGradient estimates dLoss/dParam by central differences.
func numericalGradient(net *Network, x, y *Matrix, loss LossFunc, param *Matrix, idx int) float64 {
	const eps = 1e-5
	var grad Matrix
	orig := param.Data[idx]
	param.Data[idx] = orig + eps
	lp := loss(net.Infer(x), y, &grad)
	param.Data[idx] = orig - eps
	lm := loss(net.Infer(x), y, &grad)
	param.Data[idx] = orig
	return (lp - lm) / (2 * eps)
}

func gradCheck(t *testing.T, net *Network, x, y *Matrix, loss LossFunc) {
	t.Helper()
	step := newTrainStep(net, loss, nil)
	loss(step.forward(x), y, &step.grad)
	step.backward(&step.grad)
	params, grads := step.params, step.grads
	checked := 0
	for pi, p := range params {
		for idx := 0; idx < len(p.Data); idx += 1 + len(p.Data)/7 {
			want := numericalGradient(net, x, y, loss, p, idx)
			got := grads[pi].Data[idx]
			scale := math.Max(1e-4, math.Abs(want)+math.Abs(got))
			if math.Abs(want-got)/scale > 1e-3 {
				t.Errorf("param %d idx %d: analytic %v vs numeric %v", pi, idx, got, want)
			}
			checked++
		}
	}
	if checked < 10 {
		t.Fatalf("only %d gradient entries checked", checked)
	}
}

func TestGradientCheckGroupedSoftmax(t *testing.T) {
	r := rng.New(3)
	const groups, width = 3, 4
	net, err := NewMLP([]int{5, 10, groups * width}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := NewMatrix(4, 5)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	// Weighted per-group targets: group g sums to w_g.
	y := NewMatrix(4, groups*width)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for g := 0; g < groups; g++ {
			w := r.Float64()
			sum := 0.0
			for j := g * width; j < (g+1)*width; j++ {
				row[j] = r.Float64()
				sum += row[j]
			}
			for j := g * width; j < (g+1)*width; j++ {
				row[j] = row[j] / sum * w
			}
		}
	}
	gradCheck(t, net, x, y, GroupedSoftmaxCrossEntropy(groups))
}

func TestNewMLPValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewMLP([]int{3}, r); err == nil {
		t.Error("single size should error")
	}
	if _, err := NewMLP([]int{3, 0, 2}, r); err == nil {
		t.Error("zero layer width should error")
	}
	net, err := NewMLP([]int{3, 4, 2}, r)
	if err != nil {
		t.Fatal(err)
	}
	// 3*4+4 + 4*2+2 = 26 parameters.
	got := 0
	for _, p := range net.Params() {
		got += len(p.Data)
	}
	if got != 26 {
		t.Errorf("%d parameters, want 26", got)
	}
}

func TestGroupedSoftmaxPanicsOnBadGroups(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("indivisible groups should panic")
		}
	}()
	GroupedSoftmax(new(Matrix), NewMatrix(1, 5), 2)
}

func TestGroupedSoftmaxEachGroupNormalised(t *testing.T) {
	r := rng.New(9)
	logits := NewMatrix(3, 12)
	for i := range logits.Data {
		logits.Data[i] = r.Normal(0, 3)
	}
	p := GroupedSoftmax(new(Matrix), logits, 3)
	for i := 0; i < p.Rows; i++ {
		for g := 0; g < 3; g++ {
			sum := 0.0
			for j := g * 4; j < (g+1)*4; j++ {
				sum += p.Row(i)[j]
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Errorf("row %d group %d sums to %v", i, g, sum)
			}
		}
	}
}

// TestReLUMasksNegative: a training step rectifies a hidden layer's
// output — a value <= 0 becomes 0 — and passes the gradient back only
// where that output is positive.
func TestReLUMasksNegative(t *testing.T) {
	eye, _ := FromRows([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	ones, _ := FromRows([][]float64{{1}, {1}, {1}})
	net := &Network{Layers: []*Dense{{W: eye, B: NewMatrix(1, 3)}, {W: ones, B: NewMatrix(1, 1)}}}
	step := newTrainStep(net, nil, nil)
	x, _ := FromRows([][]float64{{-1, 0, 2}})
	if out := step.forward(x); out.Data[0] != 2 {
		t.Errorf("output %v, want [2]: the sum of the rectified hidden layer", out.Data)
	}
	if h := step.scratch[0].out.Data; h[0] != 0 || h[1] != 0 || h[2] != 2 {
		t.Errorf("hidden layer %v, want [0 0 2]", h)
	}
	grad, _ := FromRows([][]float64{{1}})
	step.backward(grad)
	// The hidden gradient [1 1 1] is masked to [0 0 1], so the first
	// layer's weight gradient xᵀ·[0 0 1] is x in its last column.
	want := []float64{0, 0, -1, 0, 0, 0, 0, 0, 2}
	for i, g := range step.grads[0].Data {
		if g != want[i] {
			t.Fatalf("first layer's weight gradient %v, want %v", step.grads[0].Data, want)
		}
	}
}

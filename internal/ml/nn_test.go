package ml

import (
	"math"
	"testing"

	"stochroute/internal/rng"
)

// numericalGradient estimates dLoss/dParam by central differences.
func numericalGradient(net *Network, x, y *Matrix, loss LossFunc, param *Matrix, idx int) float64 {
	const eps = 1e-5
	orig := param.Data[idx]
	param.Data[idx] = orig + eps
	lp, _ := loss(net.Forward(x), y)
	param.Data[idx] = orig - eps
	lm, _ := loss(net.Forward(x), y)
	param.Data[idx] = orig
	return (lp - lm) / (2 * eps)
}

func gradCheck(t *testing.T, net *Network, x, y *Matrix, loss LossFunc) {
	t.Helper()
	net.ZeroGrads()
	out := net.Forward(x)
	_, grad := loss(out, y)
	net.Backward(grad)
	params := net.Params()
	grads := net.Grads()
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

func TestGradientCheckTanh(t *testing.T) {
	r := rng.New(4)
	net := &Network{Layers: []Layer{
		NewDense(3, 5, r), &Tanh{}, NewDense(5, 2, r),
	}}
	x := NewMatrix(4, 3)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	// Soft two-class targets.
	y := NewMatrix(4, 2)
	for i := 0; i < y.Rows; i++ {
		p := r.Float64()
		y.Row(i)[0], y.Row(i)[1] = p, 1-p
	}
	gradCheck(t, net, x, y, GroupedSoftmaxCrossEntropy(1))
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
	GroupedSoftmax(NewMatrix(1, 5), 2)
}

func TestGroupedSoftmaxEachGroupNormalised(t *testing.T) {
	r := rng.New(9)
	logits := NewMatrix(3, 12)
	for i := range logits.Data {
		logits.Data[i] = r.Normal(0, 3)
	}
	p := GroupedSoftmax(logits, 3)
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

func TestReLUMasksNegative(t *testing.T) {
	relu := &ReLU{}
	x, _ := FromRows([][]float64{{-1, 0, 2}})
	out := relu.Forward(x)
	if out.Row(0)[0] != 0 || out.Row(0)[1] != 0 || out.Row(0)[2] != 2 {
		t.Errorf("ReLU forward = %v", out.Data)
	}
	grad, _ := FromRows([][]float64{{1, 1, 1}})
	back := relu.Backward(grad)
	if back.Row(0)[0] != 0 || back.Row(0)[2] != 1 {
		t.Errorf("ReLU backward = %v", back.Data)
	}
}

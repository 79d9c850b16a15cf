package ml

import (
	"math"
	"testing"

	"stochroute/internal/rng"
)

// xorDataset returns the classic non-linearly-separable problem.
func xorDataset() (*Matrix, *Matrix) {
	x, _ := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y, _ := FromRows([][]float64{{1, 0}, {0, 1}, {0, 1}, {1, 0}})
	return x, y
}

func TestFitLearnsXOR(t *testing.T) {
	net, err := NewMLP([]int{2, 16, 2}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	x, y := xorDataset()
	// Replicate rows so batching has something to chew on.
	var xs, ys [][]float64
	for rep := 0; rep < 50; rep++ {
		for i := 0; i < 4; i++ {
			xs = append(xs, x.Row(i))
			ys = append(ys, y.Row(i))
		}
	}
	xm, _ := FromRows(xs)
	ym, _ := FromRows(ys)
	cfg := TrainConfig{Epochs: 200, BatchSize: 16, LearningRate: 5e-3, ValFraction: 0.1, Patience: 50, Seed: 3}
	loss := func(out, target *Matrix) (float64, *Matrix) { return SoftmaxCrossEntropy(out, target) }
	res, err := Fit(net, xm, ym, loss, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	probs := Softmax(net.Forward(x))
	for i := 0; i < 4; i++ {
		wantClass := 0
		if y.Row(i)[1] == 1 {
			wantClass = 1
		}
		gotClass := 0
		if probs.Row(i)[1] > probs.Row(i)[0] {
			gotClass = 1
		}
		if gotClass != wantClass {
			t.Errorf("XOR row %d misclassified: probs %v", i, probs.Row(i))
		}
	}
}

func TestFitRegression(t *testing.T) {
	// y = 2a - b + 1.
	r := rng.New(11)
	const n = 400
	x := NewMatrix(n, 2)
	y := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		a, b := r.Normal(0, 1), r.Normal(0, 1)
		x.Row(i)[0] = a
		x.Row(i)[1] = b
		y.Row(i)[0] = 2*a - b + 1
	}
	net, _ := NewMLP([]int{2, 16, 1}, rng.New(5))
	cfg := TrainConfig{Epochs: 150, BatchSize: 32, LearningRate: 3e-3, ValFraction: 0.15, Patience: 25, Seed: 1}
	res, err := Fit(net, x, y, MSE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestVal > 0.05 {
		t.Errorf("regression val loss %v, want < 0.05", res.BestVal)
	}
}

func TestFitErrors(t *testing.T) {
	net, _ := NewMLP([]int{2, 2}, rng.New(1))
	x := NewMatrix(3, 2)
	y := NewMatrix(4, 2)
	if _, err := Fit(net, x, y, MSE, DefaultTrainConfig()); err == nil {
		t.Error("row mismatch should error")
	}
	if _, err := Fit(net, NewMatrix(0, 2), NewMatrix(0, 2), MSE, DefaultTrainConfig()); err == nil {
		t.Error("empty data should error")
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 0
	if _, err := Fit(net, NewMatrix(2, 2), NewMatrix(2, 2), MSE, cfg); err == nil {
		t.Error("zero epochs should error")
	}
}

func TestFitDivergenceDetected(t *testing.T) {
	// Inputs so large that the very first squared error overflows to
	// +Inf: Fit must report divergence instead of looping on Inf.
	net, _ := NewMLP([]int{1, 1}, rng.New(1))
	x := NewMatrix(4, 1)
	y := NewMatrix(4, 1)
	for i := range x.Data {
		x.Data[i] = 1e200
		y.Data[i] = -1e200
	}
	cfg := TrainConfig{Epochs: 5, BatchSize: 2, LearningRate: 1e-3, Seed: 1}
	if _, err := Fit(net, x, y, MSE, cfg); err == nil {
		t.Error("exploding training should be reported")
	}
}

func TestFitEarlyStoppingRestoresBest(t *testing.T) {
	r := rng.New(13)
	const n = 120
	x := NewMatrix(n, 3)
	y := NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		for j := 0; j < 3; j++ {
			x.Row(i)[j] = r.Normal(0, 1)
		}
		y.Row(i)[0] = x.Row(i)[0] + 0.1*r.Normal(0, 1)
	}
	net, _ := NewMLP([]int{3, 8, 1}, rng.New(2))
	cfg := TrainConfig{Epochs: 400, BatchSize: 16, LearningRate: 5e-3, ValFraction: 0.25, Patience: 10, Seed: 4}
	res, err := Fit(net, x, y, MSE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.StoppedEarly && res.Epochs == 400 {
		t.Log("training ran to completion; early stop not exercised (acceptable)")
	}
	if math.IsInf(res.BestVal, 1) {
		t.Error("best validation loss never recorded")
	}
}

func TestOptimizersDescend(t *testing.T) {
	// Both optimisers must monotonically-ish reduce loss on a
	// well-conditioned linear problem.
	build := func() (*Network, *Matrix, *Matrix) {
		r := rng.New(21)
		const n = 200
		x := NewMatrix(n, 2)
		y := NewMatrix(n, 1)
		for i := 0; i < n; i++ {
			a, b := r.Normal(0, 1), r.Normal(0, 1)
			x.Row(i)[0] = a
			x.Row(i)[1] = b
			y.Row(i)[0] = 2*a - b
		}
		net, _ := NewMLP([]int{2, 1}, rng.New(3))
		return net, x, y
	}
	train := func(opt Optimizer) (first, last float64) {
		net, x, y := build()
		for epoch := 0; epoch < 120; epoch++ {
			net.ZeroGrads()
			out := net.Forward(x)
			l, grad := MSE(out, y)
			if epoch == 0 {
				first = l
			}
			last = l
			net.Backward(grad)
			opt.Step(net.Params(), net.Grads())
		}
		return first, last
	}
	for name, opt := range map[string]Optimizer{
		"adam": NewAdam(0.05),
		"sgd":  NewSGD(0.1),
	} {
		first, last := train(opt)
		if last > first/10 {
			t.Errorf("%s barely descended: %v -> %v", name, first, last)
		}
	}
}

func TestSGDMomentumRuns(t *testing.T) {
	net, _ := NewMLP([]int{2, 4, 1}, rng.New(1))
	opt := &SGD{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4}
	x := NewMatrix(8, 2)
	y := NewMatrix(8, 1)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	first := -1.0
	var last float64
	for epoch := 0; epoch < 50; epoch++ {
		net.ZeroGrads()
		out := net.Forward(x)
		l, grad := MSE(out, y)
		if first < 0 {
			first = l
		}
		last = l
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
	}
	if last >= first {
		t.Errorf("momentum SGD did not descend: %v -> %v", first, last)
	}
}

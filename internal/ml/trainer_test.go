package ml

import (
	"math"
	"testing"

	"stochroute/internal/rng"
)

// softmaxCE is the trainer's loss in every test here: one softmax over
// the whole output row against a (soft) target distribution.
var softmaxCE = GroupedSoftmaxCrossEntropy(1)

// xorDataset returns the classic non-linearly-separable problem.
func xorDataset() (*Matrix, *Matrix) {
	x, _ := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y, _ := FromRows([][]float64{{1, 0}, {0, 1}, {0, 1}, {1, 0}})
	return x, y
}

// logisticDataset draws n rows of `in` standard-normal inputs with the
// soft two-class target (p, 1−p), p = σ(logit(inputs, noise)), and
// returns them with the mean entropy of the targets — the floor of the
// cross-entropy, reached when the prediction equals the target.
func logisticDataset(r *rng.RNG, n, in int, logit func(x []float64, noise float64) float64) (x, y *Matrix, entropy float64) {
	x = NewMatrix(n, in)
	y = NewMatrix(n, 2)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = r.Normal(0, 1)
		}
		p := 1 / (1 + math.Exp(-logit(row, r.Normal(0, 1))))
		y.Row(i)[0], y.Row(i)[1] = p, 1-p
		entropy -= p*math.Log(p) + (1-p)*math.Log(1-p)
	}
	return x, y, entropy / float64(n)
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
	res, err := Fit(net, xm, ym, softmaxCE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Fatal("no epochs ran")
	}
	probs := GroupedSoftmax(new(Matrix), net.Infer(x), 1)
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
	// Regress a distribution on its inputs: the target's log-odds are
	// 2a - b + 1, which the net can represent exactly, so the validation
	// cross-entropy must come down to the targets' own entropy.
	x, y, entropy := logisticDataset(rng.New(11), 400, 2, func(x []float64, _ float64) float64 { return 2*x[0] - x[1] + 1 })
	net, _ := NewMLP([]int{2, 16, 2}, rng.New(5))
	cfg := TrainConfig{Epochs: 150, BatchSize: 32, LearningRate: 3e-3, ValFraction: 0.15, Patience: 25, Seed: 1}
	res, err := Fit(net, x, y, softmaxCE, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The validation rows' entropy differs a little from the whole
	// set's; 0.05 nats covers that and the fit.
	if excess := res.BestVal - entropy; excess > 0.05 {
		t.Errorf("regression val loss %v is %v above the targets' entropy %v, want < 0.05", res.BestVal, excess, entropy)
	}
}

func TestFitErrors(t *testing.T) {
	net, _ := NewMLP([]int{2, 2}, rng.New(1))
	x := NewMatrix(3, 2)
	y := NewMatrix(4, 2)
	if _, err := Fit(net, x, y, softmaxCE, DefaultTrainConfig()); err == nil {
		t.Error("row mismatch should error")
	}
	if _, err := Fit(net, NewMatrix(0, 2), NewMatrix(0, 2), softmaxCE, DefaultTrainConfig()); err == nil {
		t.Error("empty data should error")
	}
	cfg := DefaultTrainConfig()
	cfg.Epochs = 0
	if _, err := Fit(net, NewMatrix(2, 2), NewMatrix(2, 2), softmaxCE, cfg); err == nil {
		t.Error("zero epochs should error")
	}
}

func TestFitDivergenceDetected(t *testing.T) {
	// A feature that is not finite makes every logit ±Inf or NaN and the
	// very first loss NaN: Fit must report divergence instead of looping
	// on it.
	net, _ := NewMLP([]int{1, 2}, rng.New(1))
	x := NewMatrix(4, 1)
	y := NewMatrix(4, 2)
	for i := 0; i < x.Rows; i++ {
		x.Row(i)[0] = math.Inf(1)
		y.Row(i)[i%2] = 1
	}
	cfg := TrainConfig{Epochs: 5, BatchSize: 2, LearningRate: 1e-3, Seed: 1}
	if _, err := Fit(net, x, y, softmaxCE, cfg); err == nil {
		t.Error("exploding training should be reported")
	}
}

func TestFitEarlyStoppingRestoresBest(t *testing.T) {
	x, y, _ := logisticDataset(rng.New(13), 120, 3, func(x []float64, noise float64) float64 { return x[0] + 0.1*noise })
	net, _ := NewMLP([]int{3, 8, 2}, rng.New(2))
	cfg := TrainConfig{Epochs: 400, BatchSize: 16, LearningRate: 5e-3, ValFraction: 0.25, Patience: 10, Seed: 4}
	res, err := Fit(net, x, y, softmaxCE, cfg)
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
	// Adam — the one optimiser — must take a well-conditioned problem
	// (a linear net, targets it can represent) most of the way from its
	// starting loss to the floor, with and without weight decay.
	x, y, entropy := logisticDataset(rng.New(21), 200, 2, func(x []float64, _ float64) float64 { return 2*x[0] - x[1] })
	all := make([]int, x.Rows)
	for i := range all {
		all[i] = i
	}
	decayed := NewAdam(0.05)
	decayed.WeightDecay = 1e-4
	for name, opt := range map[string]*Adam{"adam": NewAdam(0.05), "adam+weight-decay": decayed} {
		net, _ := NewMLP([]int{2, 2}, rng.New(3))
		step := newTrainStep(net, softmaxCE, opt)
		var first, last float64
		for epoch := 0; epoch < 120; epoch++ {
			l := step.run(x, y, all)
			if epoch == 0 {
				first = l
			}
			last = l
		}
		if last-entropy > (first-entropy)/10 {
			t.Errorf("%s barely descended: %v -> %v (floor %v)", name, first, last, entropy)
		}
	}
}

package ml

import (
	"testing"

	"stochroute/internal/rng"
)

func TestLogRegSeparable(t *testing.T) {
	r := rng.New(5)
	const n = 400
	rows := make([][]float64, n)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			rows[i] = []float64{r.Normal(-2, 0.5), r.Normal(-2, 0.5)}
			labels[i] = 0
		} else {
			rows[i] = []float64{r.Normal(2, 0.5), r.Normal(2, 0.5)}
			labels[i] = 1
		}
	}
	x, _ := FromRows(rows)
	m, err := FitLogReg(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		if m.Predict(x.Row(i), 0.5) == (labels[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / n; acc < 0.98 {
		t.Errorf("separable accuracy %v", acc)
	}
}

func TestLogRegProbabilisticCalibration(t *testing.T) {
	// Labels drawn with P(y=1) = sigmoid(2x): fitted weight should be
	// near 2 and probabilities monotone in x.
	r := rng.New(6)
	const n = 4000
	rows := make([][]float64, n)
	labels := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Normal(0, 1)
		rows[i] = []float64{x}
		if r.Bool(sigmoid(2 * x)) {
			labels[i] = 1
		}
	}
	x, _ := FromRows(rows)
	m, err := fitLogReg(x, labels, 2000, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.W[0] < 1.5 || m.W[0] > 2.5 {
		t.Errorf("fitted weight %v, want ~2", m.W[0])
	}
	if m.PredictProb([]float64{-1}) >= m.PredictProb([]float64{1}) {
		t.Error("probabilities not monotone")
	}
}

func TestLogRegErrors(t *testing.T) {
	x := NewMatrix(2, 1)
	if _, err := FitLogReg(x, []float64{1}); err == nil {
		t.Error("label mismatch should error")
	}
	if _, err := FitLogReg(NewMatrix(0, 1), nil); err == nil {
		t.Error("empty data should error")
	}
	if _, err := FitLogReg(x, []float64{0, 0.5}); err == nil {
		t.Error("non-binary label should error")
	}
}

func TestSigmoidExtremes(t *testing.T) {
	if sigmoid(1000) != 1 {
		t.Errorf("sigmoid(1000) = %v", sigmoid(1000))
	}
	if s := sigmoid(-1000); s != 0 {
		t.Errorf("sigmoid(-1000) = %v", s)
	}
	if s := sigmoid(0); s != 0.5 {
		t.Errorf("sigmoid(0) = %v", s)
	}
}

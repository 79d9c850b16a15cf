package ml

import (
	"errors"
	"fmt"
	"math"
)

// LogisticRegression is a binary classifier P(y=1|x) = σ(w·x + b),
// trained by full-batch gradient descent with L2 regularisation. It is
// the paper's convolve-vs-estimate classifier.
type LogisticRegression struct {
	W []float64
	B float64
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// FitLogReg trains a logistic regression on x (rows = samples) with
// binary labels y (0 or 1): 400 full-batch epochs at learning rate 0.3
// with L2 weight 1e-4.
func FitLogReg(x *Matrix, y []float64) (*LogisticRegression, error) {
	return fitLogReg(x, y, 400, 0.3, 1e-4)
}

func fitLogReg(x *Matrix, y []float64, epochs int, rate, l2 float64) (*LogisticRegression, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("ml: FitLogReg with %d samples but %d labels", x.Rows, len(y))
	}
	if x.Rows == 0 {
		return nil, errors.New("ml: FitLogReg with no data")
	}
	for i, label := range y {
		if label != 0 && label != 1 {
			return nil, fmt.Errorf("ml: FitLogReg label %v at row %d not in {0,1}", label, i)
		}
	}
	m := &LogisticRegression{W: make([]float64, x.Cols)}
	n := float64(x.Rows)
	gw := make([]float64, x.Cols)
	for epoch := 0; epoch < epochs; epoch++ {
		for j := range gw {
			gw[j] = 0
		}
		gb := 0.0
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			p := m.PredictProb(row)
			d := p - y[i]
			for j, v := range row {
				gw[j] += d * v
			}
			gb += d
		}
		for j := range m.W {
			m.W[j] -= rate * (gw[j]/n + l2*m.W[j])
		}
		m.B -= rate * gb / n
	}
	return m, nil
}

// PredictProb returns P(y=1|x).
func (m *LogisticRegression) PredictProb(x []float64) float64 {
	z := m.B
	for j, v := range x {
		z += m.W[j] * v
	}
	return sigmoid(z)
}

// Predict returns the hard label at the given threshold.
func (m *LogisticRegression) Predict(x []float64, threshold float64) bool {
	return m.PredictProb(x) >= threshold
}

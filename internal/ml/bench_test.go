package ml

import (
	"testing"

	"stochroute/internal/rng"
)

func benchNet(b *testing.B) (*Network, *Matrix, *Matrix) {
	b.Helper()
	r := rng.New(1)
	net, err := NewMLP([]int{33, 64, 64, 96}, r) // the estimator's shape
	if err != nil {
		b.Fatal(err)
	}
	x := NewMatrix(64, 33)
	y := NewMatrix(64, 96)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for g := 0; g < 4; g++ {
			row[g*24+r.Intn(24)] = 0.25
		}
	}
	return net, x, y
}

func BenchmarkForwardBatch64(b *testing.B) {
	net, x, _ := benchNet(b)
	step := newTrainStep(net, nil, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = step.forward(x)
	}
}

// BenchmarkTrainStepBatch64 times one of Fit's mini-batch steps on the
// estimator's shape: gather 64 rows, forward, loss, backward, Adam. A
// warm step allocates nothing (TestTrainStepAllocFree gates it).
func BenchmarkTrainStepBatch64(b *testing.B) {
	net, x, y := benchNet(b)
	step := newTrainStep(net, GroupedSoftmaxCrossEntropy(4), NewAdam(1e-3))
	rows := make([]int, x.Rows)
	for i := range rows {
		rows[i] = i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		step.run(x, y, rows)
	}
}

func BenchmarkPredictSingle(b *testing.B) {
	net, _, _ := benchNet(b)
	r := rng.New(2)
	x := NewMatrix(1, 33)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = GroupedSoftmax(new(Matrix), net.Infer(x), 4)
	}
}

// inferRowSink keeps BenchmarkInferRow's result alive.
var inferRowSink []float64

// BenchmarkInferRow times the pass a query actually runs: one row
// through the estimator's shape on a warm scratch. One input in eight is
// zero, the share captured on city_search rows; the ReLUs zero about
// half of each hidden layer on their own.
func BenchmarkInferRow(b *testing.B) {
	net, x, _ := benchNet(b)
	row := x.Row(0)
	for i := 0; i < len(row); i += 8 {
		row[i] = 0
	}
	var s InferScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inferRowSink = net.InferRow(&s, row)
	}
}

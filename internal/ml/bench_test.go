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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = net.Forward(x)
	}
}

func BenchmarkTrainStepBatch64(b *testing.B) {
	net, x, y := benchNet(b)
	opt := NewAdam(1e-3)
	loss := GroupedSoftmaxCrossEntropy(4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.ZeroGrads()
		out := net.Forward(x)
		_, grad := loss(out, y)
		net.Backward(grad)
		opt.Step(net.Params(), net.Grads())
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
		_ = GroupedSoftmax(net.Forward(x), 4)
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

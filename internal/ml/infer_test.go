package ml

import (
	"fmt"
	"math"
	"testing"

	"stochroute/internal/rng"
)

// TestInferRowMatchesInfer pins the allocation-free row pass to the
// matrix pass bit for bit: the serving kernel and the training-time
// evaluation must agree exactly or search results drift between the
// scratch-aware and plain cost-model paths.
func TestInferRowMatchesInfer(t *testing.T) {
	r := rng.New(7)
	var s InferScratch
	// same runs row through both passes of net and compares float bits,
	// so a flipped zero sign fails too.
	same := func(name string, net *Network, row []float64) {
		t.Helper()
		x := &Matrix{Rows: 1, Cols: len(row), Data: append([]float64(nil), row...)}
		want := net.Infer(x).Row(0)
		got := net.InferRow(&s, row)
		if len(got) != len(want) {
			t.Fatalf("%s: len %d != %d", name, len(got), len(want))
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: out[%d] = %v, Infer = %v", name, j, got[j], want[j])
			}
		}
	}
	mlp := func(sizes ...int) *Network {
		t.Helper()
		net, err := NewMLP(sizes, r)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range net.Params() {
			for i := range p.Data {
				if p.Data[i] == 0 { // biases start at zero
					p.Data[i] = r.Normal(0, 1)
				}
			}
		}
		return net
	}

	net := mlp(11, 32, 17, 5)
	for trial := 0; trial < 50; trial++ {
		row := make([]float64, 11)
		for i := range row {
			row[i] = r.Normal(0, 2)
			if r.Intn(4) == 0 {
				row[i] = 0 // exercise MatMul's zero-skip
			}
		}
		same(fmt.Sprintf("trial %d", trial), net, row)
	}

	// The blocked row pass folds non-zero inputs four at a time and
	// finishes the rest row-wise: walk every block boundary — zero, one
	// and two full blocks with a remainder of 0 to 3 rows — at output
	// widths around the block size and at the estimator's, with one of
	// the skipped inputs a negative zero.
	for _, width := range []int{1, 3, 4, 5, 96} {
		net := mlp(11, width, 5)
		for nonZero := 0; nonZero <= 9; nonZero++ {
			row := make([]float64, 11)
			for _, i := range r.Perm(len(row))[:nonZero] {
				row[i] = r.Normal(0, 2)
			}
			for i, v := range row {
				if v == 0 {
					row[i] = math.Copysign(0, -1)
					break
				}
			}
			same(fmt.Sprintf("width %d, %d non-zero", width, nonZero), net, row)
		}
	}
}

func TestInferRowAllocFree(t *testing.T) {
	r := rng.New(8)
	net, err := NewMLP([]int{6, 16, 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	var s InferScratch
	row := make([]float64, 6)
	for i := range row {
		row[i] = r.Float64()
	}
	net.InferRow(&s, row) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		_ = net.InferRow(&s, row)
	})
	if allocs != 0 {
		t.Errorf("InferRow allocates %v per run with a warm scratch", allocs)
	}
}

func TestGroupedSoftmaxRowMatchesGroupedSoftmax(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 50; trial++ {
		row := make([]float64, 12)
		for i := range row {
			row[i] = r.Normal(0, 3)
		}
		m := &Matrix{Rows: 1, Cols: len(row), Data: append([]float64(nil), row...)}
		want := GroupedSoftmax(m, 3).Row(0)
		got := append([]float64(nil), row...)
		GroupedSoftmaxRow(got, 3)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("trial %d: [%d] %v != %v", trial, j, got[j], want[j])
			}
		}
	}
}

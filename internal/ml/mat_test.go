package ml

import (
	"math"
	"testing"
)

func TestMatMul(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c := matMulInto(new(Matrix), a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.Row(i)[j] != want[i][j] {
				t.Errorf("c[%d][%d] = %v, want %v", i, j, c.Row(i)[j], want[i][j])
			}
		}
	}
}

func TestMatMulPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	matMulInto(new(Matrix), a, b)
}

func TestMatMulATB(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})               // 3x2
	b, _ := FromRows([][]float64{{1, 0}, {0, 1}, {1, 1}})               // 3x2
	got := matMulAdd(NewMatrix(2, 2), transposeInto(new(Matrix), a), b) // aᵀ·b
	want := [][]float64{{1*1 + 3*0 + 5*1, 1*0 + 3*1 + 5*1}, {2*1 + 4*0 + 6*1, 2*0 + 4*1 + 6*1}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if got.Row(i)[j] != want[i][j] {
				t.Errorf("ATB[%d][%d] = %v, want %v", i, j, got.Row(i)[j], want[i][j])
			}
		}
	}
}

func TestMatMulABT(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2, 3}})                         // 1x3
	b, _ := FromRows([][]float64{{4, 5, 6}, {1, 1, 1}})              // 2x3
	got := matMulInto(new(Matrix), a, transposeInto(new(Matrix), b)) // a·bᵀ, 1x2
	if got.Row(0)[0] != 32 || got.Row(0)[1] != 6 {
		t.Errorf("ABT = %v", got.Data)
	}
}

func TestFromRowsErrors(t *testing.T) {
	if _, err := FromRows(nil); err == nil {
		t.Error("empty rows should error")
	}
	if _, err := FromRows([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged rows should error")
	}
}

func TestColSumsAndAddRowVector(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	sums := make([]float64, 2)
	m.AddColSums(sums)
	if sums[0] != 4 || sums[1] != 6 {
		t.Errorf("ColSums = %v", sums)
	}
	m.AddRowVectorInPlace([]float64{10, 20})
	if m.Row(0)[0] != 11 || m.Row(1)[1] != 24 {
		t.Errorf("AddRowVector result %v", m.Data)
	}
}

func TestSubRows(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	s := m.SubRows([]int{2, 0})
	if s.Rows != 2 || s.Row(0)[0] != 3 || s.Row(1)[0] != 1 {
		t.Errorf("SubRows = %+v", s)
	}
	// Mutation of the copy must not affect the source.
	s.Row(0)[0] = 99
	if m.Row(2)[0] == 99 {
		t.Error("SubRows aliases source storage")
	}
}

func TestCloneZeroApplyScale(t *testing.T) {
	m, _ := FromRows([][]float64{{1, -2}})
	c := m.Clone()
	c.Apply(math.Abs)
	if c.Row(0)[1] != 2 || m.Row(0)[1] != -2 {
		t.Error("Apply/Clone interaction wrong")
	}
	c.Zero()
	if c.Row(0)[0] != 0 || c.Row(0)[1] != 0 {
		t.Error("Zero wrong")
	}
}

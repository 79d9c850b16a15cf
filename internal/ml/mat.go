// Package ml is a from-scratch, stdlib-only machine-learning kit built
// for the paper's two learners: the distribution-estimation network (a
// feed-forward net with a softmax head trained against target histograms
// with a cross-entropy/KL objective) and the convolve-vs-estimate binary
// classifier (logistic regression). It provides dense matrices,
// layers, a loss, an optimiser, a mini-batch trainer with early stopping,
// feature scaling, metrics, and binary model serialisation.
//
// Every matrix product goes through one kernel, mulAddRows (infer.go):
// a layer's forward pass x·W row by row, the training step's weight
// gradient xᵀ·g and input gradient g·Wᵀ on a transposed operand, and
// the single-row serving pass InferRow. The memory a training step
// writes belongs to its Fit call, not to the network: a warm step
// allocates nothing, and a trained network holds only its parameters.
package ml

import (
	"errors"
	"fmt"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix returns a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("ml: NewMatrix with negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices, which must be equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return nil, errors.New("ml: FromRows with no rows")
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("ml: FromRows row %d has %d cols, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:], r)
	}
	return m, nil
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// matMulInto sets out = a·b, reusing out's storage, and returns out. It
// panics on dimension mismatch (programming error, not data error).
func matMulInto(out, a, b *Matrix) *Matrix {
	out.reshape(a.Rows, b.Cols)
	out.Zero()
	return matMulAdd(out, a, b)
}

// matMulAdd adds a·b into out, one row of a at a time through
// mulAddRows, and returns out. Started from a zeroed out, each element
// is the sum of the non-zero products a[i][k]·b[k][j] in ascending k,
// starting from +0. The products xᵀ·g and g·Wᵀ of a training step run
// here too, on a transposed operand (transposeInto): the one kernel
// serves every product of the package.
func matMulAdd(out, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("ml: matMulAdd %dx%d · %dx%d into %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, out.Rows, out.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		mulAddRows(out.Row(i), a.Row(i), b.Data)
	}
	return out
}

// transposeInto sets dst = mᵀ, reusing dst's storage, and returns dst.
func transposeInto(dst, m *Matrix) *Matrix {
	dst.reshape(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst.Data[j*dst.Cols+i] = v
		}
	}
	return dst
}

// reshape makes m a rows×cols matrix on its own storage when that is
// large enough. The contents are left as they were: callers overwrite
// them.
func (m *Matrix) reshape(rows, cols int) {
	m.Rows, m.Cols = rows, cols
	m.Data = growRow(m.Data, rows*cols)
}

// AddRowVectorInPlace adds the 1×cols vector v to every row of m.
func (m *Matrix) AddRowVectorInPlace(v []float64) {
	if len(v) != m.Cols {
		panic("ml: AddRowVectorInPlace length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// AddColSums adds the per-column sums of m into dst, row by row in
// order: from a zeroed dst, dst[j] is column j's sum.
func (m *Matrix) AddColSums(dst []float64) {
	if len(dst) != m.Cols {
		panic("ml: AddColSums length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			dst[j] += v
		}
	}
}

// Apply replaces every element x with f(x) in place and returns m.
func (m *Matrix) Apply(f func(float64) float64) *Matrix {
	for i, v := range m.Data {
		m.Data[i] = f(v)
	}
	return m
}

// SubRows returns the sub-matrix consisting of the given row indices.
func (m *Matrix) SubRows(idx []int) *Matrix { return m.subRowsInto(new(Matrix), idx) }

// subRowsInto is SubRows into dst's storage.
func (m *Matrix) subRowsInto(dst *Matrix, idx []int) *Matrix {
	dst.reshape(len(idx), m.Cols)
	for i, r := range idx {
		copy(dst.Row(i), m.Row(r))
	}
	return dst
}

package ml

import (
	"fmt"
	"math"
)

// GroupedSoftmax writes into dst, reusing its storage, an independent
// softmax of each of `groups` equal-width blocks of every row of logits,
// and returns dst. The hybrid estimator uses this to predict one
// conditional distribution per quantile band of the incoming virtual
// edge. Each row's arithmetic is GroupedSoftmaxRow's.
func GroupedSoftmax(dst, logits *Matrix, groups int) *Matrix {
	if groups <= 0 || logits.Cols%groups != 0 {
		panic(fmt.Sprintf("ml: GroupedSoftmax cols %d not divisible by groups %d", logits.Cols, groups))
	}
	dst.reshape(logits.Rows, logits.Cols)
	copy(dst.Data, logits.Data)
	for i := 0; i < dst.Rows; i++ {
		GroupedSoftmaxRow(dst.Row(i), groups)
	}
	return dst
}

// GroupedSoftmaxCrossEntropy is the loss for grouped-softmax outputs
// against *weighted* targets: each target block sums to the block's
// weight w_g (not necessarily 1), so blocks with more observed mass
// contribute proportionally. The gradient wrt the logits of block g is
// softmax_g·w_g − target_g, which reduces to ordinary softmax CE when
// w_g = 1. The softmax is computed in the gradient's buffer and turned
// into the gradient element by element; the returned LossFunc keeps no
// state, so concurrent Fits may share it.
func GroupedSoftmaxCrossEntropy(groups int) LossFunc {
	return func(logits, target, grad *Matrix) float64 {
		if logits.Rows != target.Rows || logits.Cols != target.Cols {
			panic("ml: GroupedSoftmaxCrossEntropy shape mismatch")
		}
		width := logits.Cols / groups
		GroupedSoftmax(grad, logits, groups)
		loss := 0.0
		invN := 1 / float64(logits.Rows)
		for i := 0; i < logits.Rows; i++ {
			trow := target.Row(i)
			grow := grad.Row(i)
			for g := 0; g < groups; g++ {
				blockMass := 0.0
				for j := g * width; j < (g+1)*width; j++ {
					blockMass += trow[j]
				}
				for j := g * width; j < (g+1)*width; j++ {
					p := grow[j]
					if trow[j] > 0 {
						loss -= trow[j] * math.Log(math.Max(p, 1e-300))
					}
					grow[j] = (p*blockMass - trow[j]) * invN
				}
			}
		}
		return loss * invN
	}
}

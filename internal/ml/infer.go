package ml

import "math"

// InferScratch holds the ping-pong activation buffers of the
// allocation-free single-row forward pass (Network.InferRow). One
// scratch serves one goroutine; reuse it across calls to amortise the
// buffers to zero allocations. The zero value is ready to use.
type InferScratch struct {
	a, b []float64
}

func growRow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// InferRow runs one input row through the network and returns the
// output activations, allocating nothing once the scratch is warm. It
// computes exactly what Infer computes for a 1-row batch — both run the
// same kernel, mulAddRows — so the two paths are bit-identical; the
// per-request serving path uses InferRow, training runs Forward.
//
// The returned slice is owned by the scratch and valid only until the
// next InferRow call with the same scratch.
func (n *Network) InferRow(s *InferScratch, row []float64) []float64 {
	s.a = growRow(s.a, len(row))
	copy(s.a, row)
	cur := s.a
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			outCols := layer.W.Cols
			out := growRow(s.b, outCols)
			for j := range out {
				out[j] = 0
			}
			mulAddRows(out, cur, layer.W.Data)
			for j, bv := range layer.B.Data {
				out[j] += bv
			}
			s.a, s.b = out, cur[:0]
			cur = out
		case *ReLU:
			for i, v := range cur {
				if v <= 0 {
					cur[i] = 0
				}
			}
		case *Tanh:
			for i, v := range cur {
				cur[i] = math.Tanh(v)
			}
		default:
			// Unknown layer type: fall back to the matrix path for this
			// stage (allocates, but stays correct).
			x := &Matrix{Rows: 1, Cols: len(cur), Data: cur}
			y := l.Infer(x)
			s.a = growRow(s.a[:0], len(y.Data))
			copy(s.a, y.Data)
			cur = s.a
		}
	}
	return cur
}

// mulAddRows accumulates in·W into out, W being the row-major
// len(in) × len(out) matrix w. It is the package's one product kernel:
// InferRow calls it per layer, matMulAdd per row of the left operand —
// for x·W, and on a transposed operand for a training step's xᵀ·g and
// g·Wᵀ.
//
// Zero inputs are skipped; the non-zero ones are folded four at a time,
// in ascending row order, as one left-associated scaled accumulate
//
//	out[j] + a0·w0[j] + a1·w1[j] + a2·w2[j] + a3·w3[j]
//
// so each output costs one load and one store per four multiply-adds
// instead of one of each per multiply-add (hist.convolveDense's trick).
// Go evaluates the sum left to right and does not fuse multiply-adds on
// amd64, so every output adds the same non-zero products in the same
// order as a row-at-a-time pass. Skipping a zero input is exact on
// finite w: its products are ±0, and a sum that starts at +0 never
// becomes −0 under round-to-nearest, so adding them changes no bit.
func mulAddRows(out, in, w []float64) {
	cols := len(out)
	var a [4]float64
	var rows [4][]float64
	n := 0
	for k, av := range in {
		if av == 0 {
			continue
		}
		a[n], rows[n] = av, w[k*cols:(k+1)*cols]
		if n++; n < 4 {
			continue
		}
		n = 0
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		w0, w1, w2, w3 := rows[0][:cols], rows[1][:cols], rows[2][:cols], rows[3][:cols]
		for j := range out {
			out[j] = out[j] + a0*w0[j] + a1*w1[j] + a2*w2[j] + a3*w3[j]
		}
	}
	// Fewer than four non-zero inputs are left: finish row-wise.
	for i := 0; i < n; i++ {
		av := a[i]
		for j, wv := range rows[i][:cols] {
			out[j] += av * wv
		}
	}
}

// GroupedSoftmaxRow turns each of `groups` equal-width blocks of row,
// in place, into an independent softmax distribution. GroupedSoftmax
// runs it on every row of a matrix, so the serving path and the
// training loss share its arithmetic.
func GroupedSoftmaxRow(row []float64, groups int) {
	if groups <= 0 || len(row)%groups != 0 {
		panic("ml: GroupedSoftmaxRow length not divisible by groups")
	}
	width := len(row) / groups
	for g := 0; g < groups; g++ {
		block := row[g*width : (g+1)*width]
		max := block[0]
		for _, v := range block {
			if v > max {
				max = v
			}
		}
		sum := 0.0
		for j, v := range block {
			e := math.Exp(v - max)
			block[j] = e
			sum += e
		}
		for j := range block {
			block[j] /= sum
		}
	}
}

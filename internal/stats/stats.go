// Package stats provides the statistical tests the hybrid model uses to
// label edge pairs as dependent or independent: Pearson chi-square
// independence tests over bucketed joint observations, mutual
// information, correlation, and the special functions they require
// (regularised incomplete gamma), all stdlib-only.
package stats

import (
	"errors"
	"math"
)

// Pearson returns the Pearson correlation coefficient of the paired
// samples x and y, or an error if lengths differ, fewer than two pairs
// exist, or either side is constant.
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, errors.New("stats: Pearson length mismatch")
	}
	n := len(x)
	if n < 2 {
		return 0, errors.New("stats: Pearson needs at least two pairs")
	}
	var mx, my float64
	for i := 0; i < n; i++ {
		mx += x[i]
		my += y[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: Pearson with constant input")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// ContingencyTable is a 2-D count table over bucketed (X, Y) pairs.
type ContingencyTable struct {
	Rows, Cols int
	Counts     []float64 // row-major
	Total      float64
}

// NewContingencyTable returns an empty rows×cols table.
func NewContingencyTable(rows, cols int) *ContingencyTable {
	return &ContingencyTable{Rows: rows, Cols: cols, Counts: make([]float64, rows*cols)}
}

// Add adds n observations to cell (i, j).
func (t *ContingencyTable) Add(i, j int, n float64) {
	t.Counts[i*t.Cols+j] += n
	t.Total += n
}

// At returns the count in cell (i, j).
func (t *ContingencyTable) At(i, j int) float64 { return t.Counts[i*t.Cols+j] }

// ChiSquareResult is the outcome of an independence test.
type ChiSquareResult struct {
	Statistic float64
	DF        int
	PValue    float64
}

// Dependent reports whether independence is rejected at level alpha.
func (r ChiSquareResult) Dependent(alpha float64) bool { return r.PValue < alpha }

var (
	errEmptyTable = errors.New("stats: chi-square on empty table")
	errOneLevel   = errors.New("stats: chi-square needs >= 2 non-empty rows and columns")
)

// Independence runs Pearson's chi-square test of independence on the
// table and returns it with the table's mutual information in nats,
// computing the marginals once. The test drops rows and columns with
// zero marginal count, and errors when fewer than two of either remain
// or the table is empty; the mutual information, to which zero cells
// contribute nothing, is returned either way (0 for an empty table). A
// table with at most eight rows and columns together allocates nothing.
func Independence(t *ContingencyTable) (ChiSquareResult, float64, error) {
	if t.Total == 0 {
		return ChiSquareResult{}, 0, errEmptyTable
	}
	var buf [8]float64
	sums := buf[:]
	if t.Rows+t.Cols > len(buf) {
		sums = make([]float64, t.Rows+t.Cols)
	}
	rowSum, colSum := sums[:t.Rows], sums[t.Rows:t.Rows+t.Cols]
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			c := t.At(i, j)
			rowSum[i] += c
			colSum[j] += c
		}
	}

	mi := 0.0
	for i := 0; i < t.Rows; i++ {
		for j := 0; j < t.Cols; j++ {
			c := t.At(i, j)
			if c == 0 {
				continue
			}
			pxy := c / t.Total
			px := rowSum[i] / t.Total
			py := colSum[j] / t.Total
			mi += pxy * math.Log(pxy/(px*py))
		}
	}
	if mi < 0 {
		mi = 0
	}

	liveRows, liveCols := 0, 0
	for _, r := range rowSum {
		if r > 0 {
			liveRows++
		}
	}
	for _, c := range colSum {
		if c > 0 {
			liveCols++
		}
	}
	if liveRows < 2 || liveCols < 2 {
		return ChiSquareResult{}, mi, errOneLevel
	}
	stat := 0.0
	for i := 0; i < t.Rows; i++ {
		if rowSum[i] == 0 {
			continue
		}
		for j := 0; j < t.Cols; j++ {
			if colSum[j] == 0 {
				continue
			}
			expected := rowSum[i] * colSum[j] / t.Total
			d := t.At(i, j) - expected
			stat += d * d / expected
		}
	}
	df := (liveRows - 1) * (liveCols - 1)
	p := ChiSquareSurvival(stat, float64(df))
	return ChiSquareResult{Statistic: stat, DF: df, PValue: p}, mi, nil
}

// ChiSquareSurvival returns P(X > x) for X ~ chi-square with df degrees
// of freedom, via the regularised upper incomplete gamma function.
func ChiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return 1 - RegularizedGammaP(df/2, x/2)
}

// RegularizedGammaP returns the regularised lower incomplete gamma
// function P(a, x) = γ(a, x)/Γ(a), computed with the series expansion for
// x < a+1 and the continued fraction otherwise (Numerical Recipes
// approach), accurate to ~1e-12.
func RegularizedGammaP(a, x float64) float64 {
	if x < 0 || a <= 0 {
		return math.NaN()
	}
	if x == 0 {
		return 0
	}
	if x < a+1 {
		return gammaSeries(a, x)
	}
	return 1 - gammaContinuedFraction(a, x)
}

func gammaSeries(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < maxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*eps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaContinuedFraction(a, x float64) float64 {
	const maxIter = 500
	const eps = 1e-14
	const tiny = 1e-300
	lg, _ := math.Lgamma(a)
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= maxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}

package hybrid

import (
	"sync"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/ml"
)

// Scratch is the per-search working set of the allocation-free cost
// kernel: a histogram arena owning the flat float64 storage that backs
// label distributions, plus reusable estimator buffers (feature
// vector, MLP activations, predicted conditionals, band partitions).
//
// One Scratch serves one search at a time — it is not safe for
// concurrent use — and is designed to be pooled: Reset between
// searches and a warmed Scratch allocates nothing. Histograms produced
// through a Scratch live in its arena; anything that outlives the
// search (a returned route distribution, a cache entry) must be cloned
// out before Reset.
//
// The zero value is ready to use.
type Scratch struct {
	// Arena backs every histogram the kernel produces; the search owner
	// may Recycle distributions of labels it has proven dead.
	Arena hist.Arena

	feats   []float64       // estimator feature vector
	infer   ml.InferScratch // MLP activation ping-pong buffers
	condBuf []float64       // flat Bands×CondBuckets conditional storage
	conds   [][]float64     // per-band views into condBuf
	parts   []BandPart      // band partition of the virtual distribution
}

// Reset invalidates every arena-backed histogram handed out since the
// previous Reset and readies the scratch for the next search. Retained
// buffers make the steady state allocation-free.
func (s *Scratch) Reset() {
	s.Arena.Reset()
}

// scratchPool serves the callers that cost a path outside a search
// (PathCost, PathCostElapsed, PairSumEstimate); a search brings a
// scratch of its own.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// onScratch runs f on a pooled scratch and returns a heap clone of the
// histogram f produces, the one value that outlives the scratch.
func onScratch(f func(s *Scratch) *hist.Hist) *hist.Hist {
	s := scratchPool.Get().(*Scratch)
	out := f(s).Clone()
	s.Reset()
	scratchPool.Put(s)
	return out
}

// ScratchCoster is a Coster that also answers on the heap: InitialHist
// and Extend are InitialHistInto and ExtendInto on a pooled scratch,
// the result cloned out. Only the benchmark harness's traced coster
// still depends on these heap forms; no code in this module calls them,
// and they go once that harness wraps a Coster.
type ScratchCoster interface {
	Coster
	InitialHist(e graph.EdgeID) *hist.Hist
	Extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist
}

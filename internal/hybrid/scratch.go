package hybrid

import (
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

// ScratchCoster is the contract of the allocation-free cost kernel: a
// Coster that can additionally extend path distributions into
// caller-owned scratch storage. The routing search runs its whole label
// loop on it, out of the search's Scratch; a Coster without the
// capability (a test double) is adapted by copying what Extend returns.
//
// The contract mirrors Coster exactly: InitialHistInto ≡ InitialHist
// and ExtendInto ≡ Extend, bit for bit, except that the returned
// histogram's storage belongs to s and is only valid until s.Reset.
// The virtual argument of ExtendInto is treated read-only, so the
// caller may recycle it afterwards if nothing else references it.
type ScratchCoster interface {
	Coster
	InitialHistInto(s *Scratch, e graph.EdgeID) *hist.Hist
	ExtendInto(s *Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist
}

package hybrid

import (
	"errors"
	"fmt"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
)

// Coster turns edge sequences into travel-time distributions. It is the
// interface the routing algorithms program against; implementations are
// the paper's hybrid model and the convolution-only baseline.
type Coster interface {
	// InitialHist returns the travel-time distribution of a path
	// consisting of the single edge e.
	InitialHist(e graph.EdgeID) *hist.Hist
	// Extend returns the distribution of the path obtained by appending
	// next to a path whose distribution is virtual and whose final edge
	// is lastEdge.
	Extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist
	// MinEdgeTime returns an admissible lower bound on e's travel time:
	// every extension over e adds at least this much to every support
	// point, i.e. Extend(virtual, _, e) is, in distribution, no earlier
	// than virtual shifted by MinEdgeTime(e). The routing search prunes
	// on the parent label alone by this guarantee.
	MinEdgeTime(e graph.EdgeID) float64
	// Width returns the histogram grid width.
	Width() float64
}

// PathCost computes the travel-time distribution of a full path with the
// paper's iterative procedure: the path so far is a virtual edge that is
// repeatedly combined with the next edge.
func PathCost(c Coster, edges []graph.EdgeID) (*hist.Hist, error) {
	if len(edges) == 0 {
		return nil, errors.New("hybrid: PathCost on empty path")
	}
	h := c.InitialHist(edges[0])
	for i := 1; i < len(edges); i++ {
		h = c.Extend(h, edges[i-1], edges[i])
	}
	return h, nil
}

// ConvolutionCoster is the classical baseline: every extension assumes
// spatial independence and convolves.
type ConvolutionCoster struct {
	KB *KnowledgeBase
	// MaxBuckets caps per-distribution support (0 = unlimited).
	MaxBuckets int
}

// InitialHist implements Coster.
func (c *ConvolutionCoster) InitialHist(e graph.EdgeID) *hist.Hist {
	return c.KB.Edge(e).Marginal.Clone()
}

// Extend implements Coster.
func (c *ConvolutionCoster) Extend(virtual *hist.Hist, _, next graph.EdgeID) *hist.Hist {
	out := hist.MustConvolve(virtual, c.KB.Edge(next).Marginal)
	if c.MaxBuckets > 0 {
		out.CapBucketsInPlace(c.MaxBuckets)
	}
	return out
}

// InitialHistInto implements ScratchCoster.
func (c *ConvolutionCoster) InitialHistInto(s *Scratch, e graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(c.KB.Edge(e).Marginal)
}

// ExtendInto implements ScratchCoster: the convolution step into arena
// storage, bit-identical to Extend.
func (c *ConvolutionCoster) ExtendInto(s *Scratch, virtual *hist.Hist, _, next graph.EdgeID) *hist.Hist {
	out := convolveIntoArena(s, virtual, c.KB.Edge(next).Marginal)
	if c.MaxBuckets > 0 {
		out.CapBucketsInPlace(c.MaxBuckets)
	}
	return out
}

// convolveIntoArena convolves a and b into a fresh arena histogram.
func convolveIntoArena(s *Scratch, a, b *hist.Hist) *hist.Hist {
	out := s.Arena.NewHist(0, 0, len(a.P)+len(b.P)-1)
	if err := hist.ConvolveInto(out, a, b); err != nil {
		panic(err) // widths are guaranteed equal on the routing grid
	}
	return out
}

// MinEdgeTime implements Coster.
func (c *ConvolutionCoster) MinEdgeTime(e graph.EdgeID) float64 { return c.KB.MinEdgeTime(e) }

// Width implements Coster.
func (c *ConvolutionCoster) Width() float64 { return c.KB.Width }

// Model is the trained Hybrid Model: knowledge base + estimator +
// classifier. It implements Coster.
//
// The query path (InitialHist, Extend, PairSumEstimate, PathCost) has
// no mutable state: a query writes nothing to the model, so a single
// Model serves any number of concurrent routing queries and a swap
// hands one over untouched. Decisions are counted by whoever asks, in
// a QueryStats of their own (WithStats). Mutating fields (Mode,
// MaxBuckets, AttachKB) must not race with in-flight queries.
type Model struct {
	KB         *KnowledgeBase
	Estimator  *Estimator
	Classifier *Classifier
	Mode       ClassifierMode
	// MaxBuckets caps per-distribution support during routing
	// (0 = unlimited).
	MaxBuckets int
}

// QueryStats accumulates per-request decision counts: how many hybrid
// extensions convolved versus estimated while answering one query. A
// QueryStats must not be shared across concurrently executing queries
// (each request gets its own).
type QueryStats struct {
	Convolved int
	Estimated int
}

// tally records one extension decision; a nil QueryStats counts
// nothing.
func (qs *QueryStats) tally(estimated bool) {
	switch {
	case qs == nil:
	case estimated:
		qs.Estimated++
	default:
		qs.Convolved++
	}
}

// InitialHist implements Coster.
func (m *Model) InitialHist(e graph.EdgeID) *hist.Hist {
	return m.KB.Edge(e).Marginal.Clone()
}

// MinEdgeTime implements Coster.
func (m *Model) MinEdgeTime(e graph.EdgeID) float64 { return m.KB.MinEdgeTime(e) }

// Width implements Coster.
func (m *Model) Width() float64 { return m.KB.Width }

// ShouldEstimate decides, for the intersection between lastEdge and
// next, whether to use the estimation model (true) or convolution
// (false), per the configured mode and classifier. Pairs without data
// always convolve, as the paper prescribes.
func (m *Model) ShouldEstimate(lastEdge, next graph.EdgeID) bool {
	return m.shouldEstimate(m.KB.Pair(lastEdge, next))
}

// shouldEstimate is ShouldEstimate on an already looked-up pair, so an
// extension reads the pair table once for both the decision and the
// estimator's features.
func (m *Model) shouldEstimate(ps PairStats, hasPair bool) bool {
	if !hasPair {
		return false
	}
	switch m.Mode {
	case AlwaysConvolve:
		return false
	case AlwaysEstimate:
		return m.Estimator != nil
	default:
		return m.Estimator != nil && m.Classifier != nil && m.Classifier.PredictDependent(ps)
	}
}

// Extend implements Coster: the hybrid step. The classifier picks
// convolution or estimation at this intersection. Safe for concurrent
// use.
func (m *Model) Extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	out, _ := m.extend(virtual, lastEdge, next)
	return out
}

// extend is the hybrid step, reporting which way the decision went to
// the per-request counting costers.
func (m *Model) extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) (out *hist.Hist, estimated bool) {
	ps, has := m.KB.Pair(lastEdge, next)
	if m.shouldEstimate(ps, has) {
		estimated = true
		out = m.Estimator.EstimateExtend(m.KB, virtual, next, ps, has)
	} else {
		out = hist.MustConvolve(virtual, m.KB.Edge(next).Marginal)
	}
	if m.MaxBuckets > 0 {
		out.CapBucketsInPlace(m.MaxBuckets)
	}
	return out, estimated
}

// InitialHistInto implements ScratchCoster.
func (m *Model) InitialHistInto(s *Scratch, e graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(m.KB.Edge(e).Marginal)
}

// ExtendInto implements ScratchCoster: the hybrid step writing into
// the search's scratch, bit-identical to Extend but allocation-free
// once the scratch is warm.
func (m *Model) ExtendInto(s *Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	out, _ := m.extendInto(s, virtual, lastEdge, next)
	return out
}

// extendInto is extend writing into the search's scratch.
func (m *Model) extendInto(s *Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) (out *hist.Hist, estimated bool) {
	ps, has := m.KB.Pair(lastEdge, next)
	if m.shouldEstimate(ps, has) {
		estimated = true
		out = m.Estimator.EstimateExtendInto(s, m.KB, virtual, next, ps, has)
	} else {
		out = convolveIntoArena(s, virtual, m.KB.Edge(next).Marginal)
	}
	if m.MaxBuckets > 0 {
		out.CapBucketsInPlace(m.MaxBuckets)
	}
	return out, estimated
}

// WithStats returns a Coster view of the model that additionally tallies
// every Extend decision into qs. The view is meant to live for one
// request: hand each routing query its own QueryStats and the queries
// can run concurrently while still reporting per-request convolve vs.
// estimate counts. Nothing else counts them: the model keeps no totals.
func (m *Model) WithStats(qs *QueryStats) Coster {
	if qs == nil {
		return m
	}
	return &countingCoster{m: m, qs: qs}
}

// countingCoster decorates a Model with per-request decision counting.
type countingCoster struct {
	m  *Model
	qs *QueryStats
}

func (c *countingCoster) InitialHist(e graph.EdgeID) *hist.Hist { return c.m.InitialHist(e) }
func (c *countingCoster) MinEdgeTime(e graph.EdgeID) float64    { return c.m.MinEdgeTime(e) }
func (c *countingCoster) Width() float64                        { return c.m.Width() }

func (c *countingCoster) Extend(virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	out, estimated := c.m.extend(virtual, lastEdge, next)
	c.qs.tally(estimated)
	return out
}

func (c *countingCoster) InitialHistInto(s *Scratch, e graph.EdgeID) *hist.Hist {
	return c.m.InitialHistInto(s, e)
}

func (c *countingCoster) ExtendInto(s *Scratch, virtual *hist.Hist, lastEdge, next graph.EdgeID) *hist.Hist {
	out, estimated := c.m.extendInto(s, virtual, lastEdge, next)
	c.qs.tally(estimated)
	return out
}

// PairSumEstimate returns the model's distribution for traversing the
// two-edge path (first, second) — the unit the paper evaluates with KL
// divergence.
func (m *Model) PairSumEstimate(first, second graph.EdgeID) (*hist.Hist, error) {
	g := m.KB.Graph()
	if g.Edge(first).To != g.Edge(second).From {
		return nil, fmt.Errorf("hybrid: edges %d and %d are not adjacent", first, second)
	}
	return m.Extend(m.InitialHist(first), first, second), nil
}

var (
	_ Coster        = (*ConvolutionCoster)(nil)
	_ Coster        = (*Model)(nil)
	_ ScratchCoster = (*ConvolutionCoster)(nil)
	_ ScratchCoster = (*Model)(nil)
	_ ScratchCoster = (*countingCoster)(nil)
)

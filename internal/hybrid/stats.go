// Package hybrid implements the paper's primary contribution: the Hybrid
// Model that combines machine learning and convolution to construct
// stochastic traversal costs in spatially dependent road networks, and
// the iterative "virtual edge" path-cost computation built on it.
//
// The model has the paper's two learned components:
//
//  1. a distribution-estimation model — a feed-forward network that,
//     given features of the incoming (virtual) edge distribution and the
//     outgoing edge, predicts the outgoing edge's travel-time
//     distribution *conditioned on quantile bands* of the incoming
//     distribution. Summing band-conditional convolutions yields the
//     dependent joint cost; when all bands predict the same conditional,
//     the result degenerates to plain convolution, so estimation strictly
//     generalises convolution; and
//  2. a binary classifier (logistic regression) that decides, per
//     intersection, whether to use convolution (independent pair) or
//     estimation (dependent pair).
//
// Where there is no data the model falls back to a per-edge prior
// marginal. Priors are interned per BuildKnowledgeBase call: edges whose
// priors have the same content share one EdgeStats entry, marginal
// included, so every entry the knowledge base hands out is read-only.
package hybrid

import (
	"encoding/binary"
	"fmt"
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/traj"
)

// EdgeStats is what the model knows about a single edge from
// observations (or from the free-flow fallback when unobserved). A
// knowledge base stores one entry per observed edge and one per distinct
// prior, shared by every unobserved edge whose prior has that content;
// like Marginal, an entry is read-only once built.
type EdgeStats struct {
	// Marginal is the edge's travel-time distribution: the empirical
	// histogram shrunk toward the prior, or the prior itself when Count
	// is 0. It is shared between edges (unobserved edges with the same
	// prior content hold the same pointer) and read-only: clone it,
	// convolve from it or measure it, never write to it.
	Marginal *hist.Hist
	MinTime  float64 // smallest observed travel time (optimistic bound)
	Mean     float64
	Std      float64
	Count    int // observation count; 0 means free-flow fallback
}

// PairStats is what the model knows about an adjacent edge pair.
type PairStats struct {
	Count int
	Corr  float64 // Pearson correlation of (T1, T2)
	MI    float64 // mutual information estimate, nats
}

// KnowledgeBase aggregates per-edge and per-pair statistics extracted
// from an observation store; it is the model's entire view of the data.
type KnowledgeBase struct {
	g     *graph.Graph
	Width float64 // global histogram grid width, seconds

	// Edge e's statistics are stats[statOf[e]]. stats holds exactly the
	// entries some edge refers to, in order of first reference: one per
	// observed edge, plus each interned prior an unobserved edge uses —
	// a few hundred for a hundred thousand edges without data.
	stats    []EdgeStats
	statOf   []int32 // indexed by EdgeID
	observed int     // edges with an observation

	// The pair table, grouped by first edge: the pairs whose first edge
	// is e are pairSecond/pairStats[pairStart[e]:pairStart[e+1]]. A
	// group holds at most the out-degree of e's head vertex, so Pair is
	// an index and a scan of a few entries — no hashing on the query
	// path.
	pairStart  []int32 // len NumEdges+1
	pairSecond []graph.EdgeID
	pairStats  []PairStats

	// FallbackFactor is the global mean ratio of observed mean travel
	// time to free-flow time, used to synthesise marginals for edges
	// without data.
	FallbackFactor float64
}

// ShrinkageK is the empirical-Bayes prior strength for edge marginals:
// an edge with n observations gets weight n/(n+ShrinkageK) on its
// empirical histogram and the rest on the global travel-time-ratio
// profile. Without shrinkage, sparsely observed edges would look
// artificially deterministic and the routing search would be drawn to
// their fake reliability.
const ShrinkageK = 15.0

// BuildKnowledgeBase extracts edge and pair statistics from obs, whose
// grid width must be width. Edge marginals are shrunk toward a global
// profile of travel-time/free-flow ratios learned from all observed
// edges; edges without any observations receive the pure profile scaled
// to their free-flow time. Pairs with fewer than minPairObs observations
// are not entered into the pair table (the classifier then defaults to
// convolution, as the paper does for pairs without data).
func BuildKnowledgeBase(g *graph.Graph, obs *traj.ObservationStore, width float64, minPairObs int) (*KnowledgeBase, error) {
	if width != obs.Width {
		return nil, fmt.Errorf("hybrid: BuildKnowledgeBase with width %v over observations on a %v grid", width, obs.Width)
	}
	kb := &KnowledgeBase{
		g:      g,
		Width:  width,
		statOf: make([]int32, g.NumEdges()),
	}

	profileFor, fallback := ratioProfiles(g, obs)
	kb.FallbackFactor = fallback

	// Pass 2: per-edge marginals with shrinkage toward the profile. An
	// edge without data keeps the prior; an edge with data gets an entry
	// of its own.
	priors := newPriorTable(width)
	for e := range kb.statOf {
		ed := g.Edge(graph.EdgeID(e))
		kb.statOf[e] = priors.project(profileFor(ed.Category), ed.FreeFlowSeconds())
	}
	kb.stats = priors.stats
	for e, counts := range obs.Edges() {
		n := float64(counts.Total())
		marginal, err := hist.Mixture(
			[]*hist.Hist{counts.Hist(width), kb.stats[kb.statOf[e]].Marginal},
			[]float64{n / (n + ShrinkageK), ShrinkageK / (n + ShrinkageK)},
		)
		if err != nil {
			return nil, err
		}
		kb.statOf[e] = int32(len(kb.stats))
		kb.stats = append(kb.stats, statsOf(marginal.Trim(), counts.Total()))
		kb.observed++
	}
	// Drop the priors only observed edges had, and renumber the rest in
	// order of first reference.
	renumber := make([]int32, len(kb.stats)) // new index + 1; 0 = unreferenced
	kept := int32(0)
	for _, i := range kb.statOf {
		if renumber[i] == 0 {
			kept++
			renumber[i] = kept
		}
	}
	stats := make([]EdgeStats, kept)
	for e, i := range kb.statOf {
		kb.statOf[e] = renumber[i] - 1
		stats[kb.statOf[e]] = kb.stats[i]
	}
	kb.stats = stats

	// Pairs with data arrive grouped by first edge, each group in the
	// order of its second edges: the table's own layout.
	pairs := obs.PairsWithSupport(minPairObs)
	kb.pairStart = make([]int32, g.NumEdges()+1)
	kb.pairSecond = make([]graph.EdgeID, len(pairs))
	kb.pairStats = make([]PairStats, len(pairs))
	for i, k := range pairs {
		ps := PairStats{Count: obs.Joint(k).Total(), MI: obs.PairMutualInformation(k, 3)}
		if corr, err := obs.PairCorrelation(k); err == nil {
			ps.Corr = corr
		}
		kb.pairStart[k.First+1]++
		kb.pairSecond[i], kb.pairStats[i] = k.Second, ps
	}
	for e := 0; e < g.NumEdges(); e++ {
		kb.pairStart[e+1] += kb.pairStart[e]
	}
	return kb, nil
}

// Graph returns the underlying road graph.
func (kb *KnowledgeBase) Graph() *graph.Graph { return kb.g }

// Edge returns the statistics of edge e. Its Marginal is shared between
// edges and read-only (see EdgeStats).
func (kb *KnowledgeBase) Edge(e graph.EdgeID) EdgeStats { return kb.stats[kb.statOf[e]] }

// Pair returns the statistics of the (first, second) pair and whether the
// pair has enough data to be in the table.
func (kb *KnowledgeBase) Pair(first, second graph.EdgeID) (PairStats, bool) {
	if int(first) < 0 || int(first) >= len(kb.statOf) {
		return PairStats{}, false
	}
	lo, hi := kb.pairStart[first], kb.pairStart[first+1]
	for i, s := range kb.pairSecond[lo:hi] {
		if s == second {
			return kb.pairStats[int(lo)+i], true
		}
	}
	return PairStats{}, false
}

// NumPairs returns the number of pairs with data.
func (kb *KnowledgeBase) NumPairs() int { return len(kb.pairSecond) }

// EdgeCoverage reports how much of the network the data reaches: edges
// with an observation, all edges, and the distinct marginal histograms
// held — one per observed edge plus the priors the others share.
func (kb *KnowledgeBase) EdgeCoverage() (observed, edges, distinctMarginals int) {
	return kb.observed, len(kb.statOf), len(kb.stats)
}

// MinEdgeTime returns the optimistic (smallest possible) travel time of
// e known to the model.
func (kb *KnowledgeBase) MinEdgeTime(e graph.EdgeID) float64 { return kb.stats[kb.statOf[e]].MinTime }

// ratioProfiles is pass 1 of BuildKnowledgeBase: travel-time / free-flow
// ratio profiles — one per road category plus a global fallback — and
// the mean ratio (FallbackFactor). Congestion shapes differ sharply by
// road class (motorways are tight, residential streets heavy-tailed), so
// a class-agnostic prior would make rarely observed side streets look as
// reliable as arterials.
func ratioProfiles(g *graph.Graph, obs *traj.ObservationStore) (profileFor func(graph.RoadCategory) *ratioProfile, fallback float64) {
	global := newRatioProfile()
	byCat := make([]*ratioProfile, graph.NumRoadCategories)
	for c := range byCat {
		byCat[c] = newRatioProfile()
	}
	ratioSum, ratioN := 0.0, 0
	for id, counts := range obs.Edges() {
		ed := g.Edge(id)
		ff := ed.FreeFlowSeconds()
		if ff <= 0 {
			continue
		}
		// Weight each edge equally regardless of its sample count so
		// heavily travelled edges do not dominate the profile.
		n := counts.Total()
		inc := 1 / float64(n)
		mean := 0.0
		catProfile := global
		if int(ed.Category) < len(byCat) {
			catProfile = byCat[ed.Category]
		}
		// One add per observation, as over a sample list: the masses
		// keep a sample list's bits.
		for i, k := range counts.Counts {
			s := float64(counts.Lo+i) * obs.Width
			for ; k > 0; k-- {
				global.add(s/ff, inc)
				catProfile.add(s/ff, inc)
				mean += s
			}
		}
		ratioSum += mean / float64(n) / ff
		ratioN++
	}
	fallback = 1.3
	if ratioN > 0 {
		fallback = ratioSum / float64(ratioN)
	}
	if global.total == 0 {
		// No observations at all: a coarse congestion shape around the
		// fallback factor.
		global.add(fallback*0.85, 0.55)
		global.add(fallback, 0.3)
		global.add(fallback*1.3, 0.15)
	}
	// A category profile needs the equivalent of a few dozen edges of
	// evidence before it overrides the global shape.
	const minProfileWeight = 25.0
	return func(cat graph.RoadCategory) *ratioProfile {
		if int(cat) < len(byCat) && byCat[cat].total >= minProfileWeight {
			return byCat[cat]
		}
		return global
	}, fallback
}

// ratioProfile is a coarse histogram over travel-time / free-flow
// ratios, the network-wide congestion shape used as the shrinkage prior.
type ratioProfile struct {
	// Mass per ratio bucket; bucket i covers ratio ratioGridMin + i·step.
	mass  []float64
	total float64
}

const (
	ratioGridMin  = 0.3
	ratioGridMax  = 6.0
	ratioGridStep = 0.05
)

func newRatioProfile() *ratioProfile {
	n := int((ratioGridMax-ratioGridMin)/ratioGridStep) + 1
	return &ratioProfile{mass: make([]float64, n)}
}

func (p *ratioProfile) add(ratio, weight float64) {
	if math.IsNaN(ratio) {
		return
	}
	i := int(math.Round((ratio - ratioGridMin) / ratioGridStep))
	if i < 0 {
		i = 0
	}
	if i >= len(p.mass) {
		i = len(p.mass) - 1
	}
	p.mass[i] += weight
	p.total += weight
}

// statsOf measures an edge's marginal.
func statsOf(marginal *hist.Hist, count int) EdgeStats {
	return EdgeStats{Marginal: marginal, MinTime: marginal.Min, Mean: marginal.Mean(), Std: marginal.Std(), Count: count}
}

// priorTable interns the prior marginals of one BuildKnowledgeBase call
// by content, as the statistics of an edge without data: a ratio profile
// projected onto the free-flow times of a hundred thousand edges yields
// a few hundred distinct entries of stats. It lives for one call because
// the profiles change with the data.
type priorTable struct {
	width float64
	stats []EdgeStats
	byKey map[string]int32   // index into stats
	byArg map[priorArg]int32 // what project returned for these arguments
	buf   []float64          // dense projection, reused
	key   []byte             // first grid index, then the mass bits of buf; reused
}

func newPriorTable(width float64) *priorTable {
	return &priorTable{width: width, byKey: make(map[string]int32), byArg: make(map[priorArg]int32)}
}

// priorArg is project's argument list as a map key: the two directions
// of a two-way street ask for the same projection, which halves the
// projections of a build.
type priorArg struct {
	p        *ratioProfile
	freeFlow uint64 // float bits
}

// project returns the index in stats of the ratio profile p projected
// onto the absolute travel-time grid for an edge with the given
// free-flow time. Every step from ratio bucket to grid index is
// monotone, so the indices arrive in ascending order: the first one
// starts the support, the buffer only grows at its end, and each grid
// point sums its masses in the order a per-index accumulator would —
// equal content, equal bits.
func (t *priorTable) project(p *ratioProfile, freeFlow float64) int32 {
	arg := priorArg{p, math.Float64bits(freeFlow)}
	if i, ok := t.byArg[arg]; ok {
		return i
	}
	width := t.width
	if freeFlow <= 0 {
		freeFlow = width
	}
	t.buf = t.buf[:0]
	lo := 0
	for i, m := range p.mass {
		if m == 0 {
			continue
		}
		ratio := ratioGridMin + float64(i)*ratioGridStep
		at := math.Max(width, math.Round(ratio*freeFlow/width)*width)
		idx := int(math.Round(at / width))
		if len(t.buf) == 0 {
			lo = idx
		}
		for len(t.buf) <= idx-lo {
			t.buf = append(t.buf, 0)
		}
		t.buf[idx-lo] += m
	}
	if len(t.buf) == 0 {
		// An empty profile has no shape to share: all mass at the
		// free-flow time.
		t.stats = append(t.stats, statsOf(hist.Delta(math.Max(width, freeFlow), width), 0))
		return int32(len(t.stats) - 1)
	}
	t.key = binary.LittleEndian.AppendUint64(t.key[:0], uint64(lo))
	for _, m := range t.buf {
		t.key = binary.LittleEndian.AppendUint64(t.key, math.Float64bits(m))
	}
	i, ok := t.byKey[string(t.key)]
	if !ok {
		i = int32(len(t.stats))
		t.stats = append(t.stats, statsOf(hist.New(float64(lo)*width, width, append([]float64(nil), t.buf...)).Normalize(), 0))
		t.byKey[string(t.key)] = i
	}
	t.byArg[arg] = i
	return i
}

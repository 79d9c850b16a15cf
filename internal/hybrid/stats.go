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
package hybrid

import (
	"errors"
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/traj"
)

// EdgeStats is what the model knows about a single edge from
// observations (or from the free-flow fallback when unobserved).
type EdgeStats struct {
	Marginal *hist.Hist // empirical travel-time distribution
	MinTime  float64    // smallest observed travel time (optimistic bound)
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

	edges []EdgeStats // indexed by EdgeID

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

// BuildKnowledgeBase extracts edge and pair statistics from obs. Edge
// marginals are shrunk toward a global profile of travel-time/free-flow
// ratios learned from all observed edges; edges without any observations
// receive the pure profile scaled to their free-flow time. Pairs with
// fewer than minPairObs observations are not entered into the pair table
// (the classifier then defaults to convolution, as the paper does for
// pairs without data).
func BuildKnowledgeBase(g *graph.Graph, obs *traj.ObservationStore, width float64, minPairObs int) (*KnowledgeBase, error) {
	if width <= 0 {
		return nil, errors.New("hybrid: BuildKnowledgeBase with non-positive width")
	}
	kb := &KnowledgeBase{
		g:     g,
		Width: width,
		edges: make([]EdgeStats, g.NumEdges()),
	}

	// Pass 1: travel-time / free-flow ratio profiles — one per road
	// category plus a global fallback — and the mean ratio
	// (FallbackFactor). Congestion shapes differ sharply by road class
	// (motorways are tight, residential streets heavy-tailed), so a
	// class-agnostic prior would make rarely observed side streets look
	// as reliable as arterials.
	global := newRatioProfile()
	byCat := make([]*ratioProfile, graph.NumRoadCategories)
	for c := range byCat {
		byCat[c] = newRatioProfile()
	}
	ratioSum, ratioN := 0.0, 0
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		samples := obs.Edge[id]
		if len(samples) == 0 {
			continue
		}
		ed := g.Edge(id)
		ff := ed.FreeFlowSeconds()
		if ff <= 0 {
			continue
		}
		// Weight each edge equally regardless of its sample count so
		// heavily travelled edges do not dominate the profile.
		inc := 1 / float64(len(samples))
		mean := 0.0
		catProfile := global
		if int(ed.Category) < len(byCat) {
			catProfile = byCat[ed.Category]
		}
		for _, s := range samples {
			global.add(s/ff, inc)
			catProfile.add(s/ff, inc)
			mean += s
		}
		ratioSum += mean / float64(len(samples)) / ff
		ratioN++
	}
	kb.FallbackFactor = 1.3
	if ratioN > 0 {
		kb.FallbackFactor = ratioSum / float64(ratioN)
	}
	if global.total == 0 {
		// No observations at all: a coarse congestion shape around the
		// fallback factor.
		global.add(kb.FallbackFactor*0.85, 0.55)
		global.add(kb.FallbackFactor, 0.3)
		global.add(kb.FallbackFactor*1.3, 0.15)
	}
	// A category profile needs the equivalent of a few dozen edges of
	// evidence before it overrides the global shape.
	const minProfileWeight = 25.0
	profileFor := func(cat graph.RoadCategory) *ratioProfile {
		if int(cat) < len(byCat) && byCat[cat].total >= minProfileWeight {
			return byCat[cat]
		}
		return global
	}

	// Pass 2: per-edge marginals with shrinkage toward the profile.
	for e := 0; e < g.NumEdges(); e++ {
		id := graph.EdgeID(e)
		ed := g.Edge(id)
		ff := ed.FreeFlowSeconds()
		prior := profileFor(ed.Category).scaledHist(ff, width)
		samples := obs.Edge[id]
		var marginal *hist.Hist
		if len(samples) == 0 {
			marginal = prior
		} else {
			empirical, err := hist.FromSamples(samples, width)
			if err != nil {
				return nil, err
			}
			n := float64(len(samples))
			marginal, err = hist.Mixture(
				[]*hist.Hist{empirical, prior},
				[]float64{n / (n + ShrinkageK), ShrinkageK / (n + ShrinkageK)},
			)
			if err != nil {
				return nil, err
			}
			marginal = marginal.Trim()
		}
		kb.edges[e] = EdgeStats{
			Marginal: marginal,
			MinTime:  marginal.Min,
			Mean:     marginal.Mean(),
			Std:      marginal.Std(),
			Count:    len(samples),
		}
	}

	// Pairs with data, grouped by first edge: count each group, turn
	// the counts into group starts, then fill the groups.
	withData := func(k traj.PairKey, list []traj.PairObs) bool {
		return len(list) >= minPairObs && int(k.First) >= 0 && int(k.First) < g.NumEdges()
	}
	kb.pairStart = make([]int32, g.NumEdges()+1)
	for k, list := range obs.Pairs {
		if withData(k, list) {
			kb.pairStart[k.First+1]++
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		kb.pairStart[e+1] += kb.pairStart[e]
	}
	n := kb.pairStart[g.NumEdges()]
	kb.pairSecond = make([]graph.EdgeID, n)
	kb.pairStats = make([]PairStats, n)
	next := append([]int32(nil), kb.pairStart[:g.NumEdges()]...)
	for k, list := range obs.Pairs {
		if !withData(k, list) {
			continue
		}
		ps := PairStats{Count: len(list)}
		if corr, err := obs.PairCorrelation(k); err == nil {
			ps.Corr = corr
		}
		ps.MI = obs.PairMutualInformation(k, 3)
		i := next[k.First]
		next[k.First]++
		kb.pairSecond[i], kb.pairStats[i] = k.Second, ps
	}
	return kb, nil
}

// Graph returns the underlying road graph.
func (kb *KnowledgeBase) Graph() *graph.Graph { return kb.g }

// Edge returns the statistics of edge e.
func (kb *KnowledgeBase) Edge(e graph.EdgeID) EdgeStats { return kb.edges[e] }

// Pair returns the statistics of the (first, second) pair and whether the
// pair has enough data to be in the table.
func (kb *KnowledgeBase) Pair(first, second graph.EdgeID) (PairStats, bool) {
	if int(first) < 0 || int(first) >= len(kb.edges) {
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

// MinEdgeTime returns the optimistic (smallest possible) travel time of
// e known to the model.
func (kb *KnowledgeBase) MinEdgeTime(e graph.EdgeID) float64 { return kb.edges[e].MinTime }

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

// scaledHist projects the ratio profile onto the absolute travel-time
// grid for an edge with the given free-flow time.
func (p *ratioProfile) scaledHist(freeFlow, width float64) *hist.Hist {
	if freeFlow <= 0 {
		freeFlow = width
	}
	masses := make(map[int]float64)
	lo, hi := math.MaxInt32, math.MinInt32
	for i, m := range p.mass {
		if m == 0 {
			continue
		}
		ratio := ratioGridMin + float64(i)*ratioGridStep
		t := math.Max(width, math.Round(ratio*freeFlow/width)*width)
		idx := int(math.Round(t / width))
		masses[idx] += m
		if idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
	}
	if len(masses) == 0 {
		return hist.Delta(math.Max(width, freeFlow), width)
	}
	out := make([]float64, hi-lo+1)
	for idx, m := range masses {
		out[idx-lo] = m
	}
	return hist.New(float64(lo)*width, width, out).Normalize()
}

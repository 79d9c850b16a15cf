package traj

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/stats"
)

// PairKey identifies an ordered adjacent edge pair.
type PairKey struct {
	First  graph.EdgeID
	Second graph.EdgeID
}

// PairObs is one joint observation of a pair: the two consecutive travel
// times from a single trajectory.
type PairObs struct {
	T1, T2 float64
}

// ObservationStore aggregates what the learners are allowed to see:
// per-edge travel-time samples and per-pair joint samples, exactly the
// information content of the paper's map-matched GPS trajectories.
//
// A store is built by Collect and read-only afterwards: the knowledge
// base, the trainer and the engine snapshot that hold one never write
// to it, so it needs no lock and is never copied. One Collect carves
// every new key's samples out of two shared blocks (one []float64, one
// []PairObs) at exact capacity; a later Collect appending to such a key
// reallocates that key alone.
type ObservationStore struct {
	g     *graph.Graph
	Edge  map[graph.EdgeID][]float64
	Pairs map[PairKey][]PairObs

	// Width is the travel-time grid width in seconds; the dependence
	// tests use it to separate latent-mode clusters from within-mode
	// observation noise. Zero falls back to a data-driven estimate.
	Width float64
}

// NewObservationStore returns an empty store over g whose travel times
// lie on a grid of the given width (0 if unknown).
func NewObservationStore(g *graph.Graph, width float64) *ObservationStore {
	return &ObservationStore{
		g:     g,
		Edge:  make(map[graph.EdgeID][]float64),
		Pairs: make(map[PairKey][]PairObs),
		Width: width,
	}
}

// Collect ingests trajectories: count, carve, append. The counting pass
// sizes every key the store does not hold yet, so those keys share one
// allocation per sample kind instead of growing one by one; the append
// pass then stores the samples in trajectory order, exactly as plain
// appends would.
func (s *ObservationStore) Collect(trs []Trajectory) {
	edgeN := make([]int32, s.g.NumEdges())
	pairN := make(map[PairKey]int)
	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			// An edge outside the graph is kept, as ever; it just
			// grows by plain appends.
			if uint(e) < uint(len(edgeN)) {
				edgeN[e]++
			}
			if j > 0 {
				pairN[PairKey{First: tr.Edges[j-1], Second: e}]++
			}
		}
	}
	total := 0
	for e, n := range edgeN {
		if _, held := s.Edge[graph.EdgeID(e)]; n == 0 || held {
			edgeN[e] = 0
			continue
		}
		total += int(n)
	}
	// Each new key gets buf[:0:n]: the capacity stops at the key's own
	// count, so an append past it reallocates instead of writing into
	// the neighbouring key's samples.
	times := make([]float64, total)
	for e, n := range edgeN {
		if n > 0 {
			s.Edge[graph.EdgeID(e)] = times[:0:n]
			times = times[n:]
		}
	}
	total = 0
	for k, n := range pairN {
		if _, held := s.Pairs[k]; held {
			delete(pairN, k)
			continue
		}
		total += n
	}
	joint := make([]PairObs, total)
	for k, n := range pairN {
		s.Pairs[k] = joint[:0:n]
		joint = joint[n:]
	}

	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			s.Edge[e] = append(s.Edge[e], tr.Times[j])
			if j > 0 {
				k := PairKey{First: tr.Edges[j-1], Second: e}
				s.Pairs[k] = append(s.Pairs[k], PairObs{T1: tr.Times[j-1], T2: tr.Times[j]})
			}
		}
	}
}

// NumEdgeObservations returns the total count of edge traversals seen.
func (s *ObservationStore) NumEdgeObservations() int {
	n := 0
	for _, v := range s.Edge {
		n += len(v)
	}
	return n
}

// PairSumHist returns the empirical histogram of T1+T2 for the pair, or
// an error without observations.
func (s *ObservationStore) PairSumHist(k PairKey, width float64) (*hist.Hist, error) {
	obs, ok := s.Pairs[k]
	if !ok || len(obs) == 0 {
		return nil, fmt.Errorf("traj: pair (%d,%d) has no observations", k.First, k.Second)
	}
	sums := make([]float64, len(obs))
	for i, o := range obs {
		sums[i] = o.T1 + o.T2
	}
	return hist.FromSamples(sums, width)
}

// PairsWithSupport returns the pair keys with at least minObs joint
// observations, in deterministic (sorted) order.
func (s *ObservationStore) PairsWithSupport(minObs int) []PairKey {
	var out []PairKey
	for k, obs := range s.Pairs {
		if len(obs) >= minObs {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].First != out[j].First {
			return out[i].First < out[j].First
		}
		return out[i].Second < out[j].Second
	})
	return out
}

// DependenceTest runs a chi-square independence test on the pair's joint
// observations, bucketing each side into up to `buckets` *mode clusters*
// (groups of nearby values separated by gaps, which recovers latent
// congestion modes far more powerfully than quantile bins on discrete
// travel times). It errors when the pair lacks observations or either
// side has a single cluster (in which case the pair is trivially
// independent).
func (s *ObservationStore) DependenceTest(k PairKey, buckets int, alpha float64) (stats.ChiSquareResult, error) {
	obs := s.Pairs[k]
	if len(obs) == 0 {
		return stats.ChiSquareResult{}, errors.New("traj: DependenceTest without observations")
	}
	if buckets < 2 {
		buckets = 2
	}
	t1 := make([]float64, len(obs))
	t2 := make([]float64, len(obs))
	for i, o := range obs {
		t1[i] = o.T1
		t2[i] = o.T2
	}
	b1, n1 := clusterBucketer(t1, buckets, s.Width)
	b2, n2 := clusterBucketer(t2, buckets, s.Width)
	table := stats.NewContingencyTable(n1, n2)
	for i := range obs {
		table.Add(b1(t1[i]), b2(t2[i]))
	}
	return stats.ChiSquareIndependence(table)
}

// PairCorrelation returns the Pearson correlation of the pair's joint
// observations.
func (s *ObservationStore) PairCorrelation(k PairKey) (float64, error) {
	obs := s.Pairs[k]
	if len(obs) < 2 {
		return 0, errors.New("traj: PairCorrelation needs >= 2 observations")
	}
	t1 := make([]float64, len(obs))
	t2 := make([]float64, len(obs))
	for i, o := range obs {
		t1[i] = o.T1
		t2[i] = o.T2
	}
	return stats.Pearson(t1, t2)
}

// PairMutualInformation estimates the mutual information (nats) of the
// pair's joint observations over quantile buckets.
func (s *ObservationStore) PairMutualInformation(k PairKey, buckets int) float64 {
	obs := s.Pairs[k]
	if len(obs) == 0 {
		return 0
	}
	if buckets < 2 {
		buckets = 2
	}
	t1 := make([]float64, len(obs))
	t2 := make([]float64, len(obs))
	for i, o := range obs {
		t1[i] = o.T1
		t2[i] = o.T2
	}
	b1, n1 := clusterBucketer(t1, buckets, s.Width)
	b2, n2 := clusterBucketer(t2, buckets, s.Width)
	table := stats.NewContingencyTable(n1, n2)
	for i := range obs {
		table.Add(b1(t1[i]), b2(t2[i]))
	}
	return stats.MutualInformation(table)
}

// clusterBucketer groups sample values into up to maxClusters clusters
// separated by value gaps larger than ~1.5 grid steps, and returns the
// assignment function plus the number of clusters found. Travel times
// concentrate around latent congestion-mode values with at most ±1 grid
// step of observation noise, so gap clustering recovers the modes;
// quantile bins would cut *inside* a mode and dilute the dependence
// signal with independent noise. When width is 0 (unknown grid) the
// smallest positive difference between distinct values estimates it.
func clusterBucketer(samples []float64, maxClusters int, width float64) (func(float64) int, int) {
	distinct := append([]float64(nil), samples...)
	sort.Float64s(distinct)
	uniq := distinct[:0]
	for i, v := range distinct {
		if i == 0 || v != uniq[len(uniq)-1] {
			uniq = append(uniq, v)
		}
	}
	if len(uniq) <= 1 {
		return func(float64) int { return 0 }, 1
	}
	if width <= 0 {
		width = math.Inf(1)
		for i := 1; i < len(uniq); i++ {
			if d := uniq[i] - uniq[i-1]; d < width {
				width = d
			}
		}
	}
	threshold := 1.5 * width
	type gap struct {
		after float64 // boundary placed after this value
		size  float64
	}
	var gaps []gap
	for i := 1; i < len(uniq); i++ {
		if d := uniq[i] - uniq[i-1]; d > threshold {
			gaps = append(gaps, gap{after: uniq[i-1], size: d})
		}
	}
	if len(gaps) == 0 {
		return func(float64) int { return 0 }, 1
	}
	// Keep only the largest maxClusters-1 boundaries.
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].size > gaps[j].size })
	if len(gaps) > maxClusters-1 {
		gaps = gaps[:maxClusters-1]
	}
	cuts := make([]float64, len(gaps))
	for i, g := range gaps {
		cuts[i] = g.after
	}
	sort.Float64s(cuts)
	n := len(cuts) + 1
	// SearchFloat64s returns the first index with cuts[i] >= x, so a
	// value equal to a boundary belongs to the cluster below it.
	return func(x float64) int { return sort.SearchFloat64s(cuts, x) }, n
}

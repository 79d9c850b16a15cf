package traj

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/stats"
)

// PairKey identifies an ordered adjacent edge pair.
type PairKey struct {
	First  graph.EdgeID
	Second graph.EdgeID
}

// GridCounts is a count vector on the travel-time grid: Counts[i]
// observations fell in grid step Lo+i.
type GridCounts struct {
	Lo     int
	Counts []int32
}

// Total returns the number of observations counted.
func (c GridCounts) Total() int {
	n := 0
	for _, k := range c.Counts {
		n += int(k)
	}
	return n
}

// Hist returns the normalised histogram of the counts on a grid of the
// given width. Each step's mass is 1/Total added once per observation,
// exactly as hist.FromSamples adds it per sample, so counts of samples
// that lie on the grid give FromSamples' bits.
func (c GridCounts) Hist(width float64) *hist.Hist {
	h := &hist.Hist{}
	c.HistInto(h, width)
	return h
}

// HistInto computes c.Hist(width) into dst, reusing dst.P's backing
// array when its capacity suffices.
func (c GridCounts) HistInto(dst *hist.Hist, width float64) {
	inc := 1 / float64(c.Total())
	dst.P = slices.Grow(dst.P[:0], len(c.Counts))[:len(c.Counts)]
	clear(dst.P)
	for i, k := range c.Counts {
		for ; k > 0; k-- {
			dst.P[i] += inc
		}
	}
	dst.Min, dst.Width = float64(c.Lo)*width, width
}

// Cell is one entry of a pair's joint counts: N observations took grid
// step I1 on the first edge and grid step I2 on the second.
type Cell struct{ I1, I2, N int32 }

// JointCounts is a pair's non-zero joint counts in ascending (I1, I2)
// order.
type JointCounts []Cell

// Total returns the number of joint observations counted.
func (c JointCounts) Total() int {
	n := 0
	for _, cell := range c {
		n += int(cell.N)
	}
	return n
}

// ObservationStore is what the learners are allowed to see of the
// trajectories: how often each edge took each travel time, and how
// often each adjacent pair took each pair of travel times — the
// histograms the paper builds its model from, as counts on one grid.
//
// Grid step i holds the travel times in [i·Width, (i+1)·Width); Collect
// bins every time t to step floor(t/Width). Simulated times lie on the
// grid, so binning them loses nothing. Off-grid input (ingested or read
// from a file) is seen at its grid step, the resolution its marginal
// has anyway; its pair statistics see the binned values too.
//
// The store holds, per observed edge, a count vector over the edge's
// grid-step range, and per observed pair its non-zero joint counts
// (i₁, i₂) → n, pairs grouped by first edge as the knowledge base groups
// its pair table. Every reader is a function of these counts, so a store
// is the same whatever the order of the trajectories and however many
// Collect calls they arrive in.
//
// Collect adds to the store. A store is read-only once collected: the
// knowledge base, the trainer and the engine snapshot that hold one
// never write to it, so it needs no lock.
type ObservationStore struct {
	g *graph.Graph
	// Width is the grid width in seconds.
	Width float64

	edges  []edgeRun // observed edges, ascending by ID
	counts []int32   // the edges' count vectors, one run after another
	pairs  []pairRun // observed pairs, ascending by (First, Second)
	cells  []Cell    // the pairs' joint counts, one run after another
}

// edgeRun locates one edge's count vector: counts[previous end : end],
// whose first entry is grid step lo. A vector spans a range of steps,
// not of observations, so its end is an int.
type edgeRun struct {
	id  graph.EdgeID
	lo  int32
	end int
}

// pairRun locates one pair's joint counts: cells[previous end : end].
type pairRun struct {
	key PairKey
	end int32
}

// CheckWidth reports whether width, in seconds, can be a store's grid
// width: it must be positive, finite, and coarse enough that the grid
// step of MaxTravelTime fits in an int32 (about 40 µs or more).
func CheckWidth(width float64) error {
	if !(width > 0) || math.IsInf(width, 1) || MaxTravelTime/width >= math.MaxInt32 {
		return fmt.Errorf("traj: grid width %v, want finite and at least %.3g", width, MaxTravelTime/math.MaxInt32)
	}
	return nil
}

// NewObservationStore returns an empty store over g on a grid of the
// given width in seconds. The store bins every travel time on that grid,
// so it panics when CheckWidth rejects the width.
func NewObservationStore(g *graph.Graph, width float64) *ObservationStore {
	if err := CheckWidth(width); err != nil {
		panic(err)
	}
	return &ObservationStore{g: g, Width: width}
}

// step returns the grid step of travel time t. A time Validate accepts
// on a width CheckWidth accepts has a step in [0, MaxInt32).
func (s *ObservationStore) step(t float64) int32 { return int32(math.Floor(t / s.Width)) }

func (s *ObservationStore) edgeCounts(j int) GridCounts {
	start := 0
	if j > 0 {
		start = s.edges[j-1].end
	}
	return GridCounts{Lo: int(s.edges[j].lo), Counts: s.counts[start:s.edges[j].end]}
}

func (s *ObservationStore) pairCells(j int) JointCounts {
	start := int32(0)
	if j > 0 {
		start = s.pairs[j-1].end
	}
	return s.cells[start:s.pairs[j].end]
}

// pairObs is one joint count on its way into the store, in its first
// edge's group: a held cell or a new observation (n = 1).
type pairObs struct {
	second    graph.EdgeID
	i1, i2, n int32
}

// Collect adds the trajectories' observations to the store. Every
// trajectory must pass Validate against the store's graph; the program
// validates trajectories where they enter it (the engine constructors,
// the ingestor and the SRT2 reader).
//
// The store is rebuilt into fresh arrays from its held counts and the
// new observations: edge counts go straight to their grid step; pair
// observations are grouped by first edge with a counting sort, then
// sorted and merged within each group. Collect never writes into the
// arrays it held, so next := *held; next.Collect(batch) folds a batch
// while held goes on being read, unchanged.
func (s *ObservationStore) Collect(trs []Trajectory) {
	if len(trs) == 0 {
		return
	}
	n := s.g.NumEdges()

	// Edges: every edge's grid-step range over held and new counts, then
	// one vector per observed edge.
	lo, hi := make([]int32, n), make([]int32, n)
	for e := range lo {
		lo[e], hi[e] = math.MaxInt32, math.MinInt32
	}
	for j, r := range s.edges {
		lo[r.id], hi[r.id] = r.lo, r.lo+int32(len(s.edgeCounts(j).Counts))-1
	}
	for i := range trs {
		for j, e := range trs[i].Edges {
			st := s.step(trs[i].Times[j])
			lo[e], hi[e] = min(lo[e], st), max(hi[e], st)
		}
	}
	var edges []edgeRun
	base := make([]int, n) // base[e]+i is where edge e counts grid step i
	end := 0
	for e := range lo {
		if lo[e] <= hi[e] {
			base[e] = end - int(lo[e])
			end += int(hi[e]) - int(lo[e]) + 1
			edges = append(edges, edgeRun{id: graph.EdgeID(e), lo: lo[e], end: end})
		}
	}
	counts := make([]int32, end)
	for j, r := range s.edges {
		copy(counts[base[r.id]+int(r.lo):], s.edgeCounts(j).Counts)
	}
	for i := range trs {
		for j, e := range trs[i].Edges {
			counts[base[e]+int(s.step(trs[i].Times[j]))]++
		}
	}

	// Pairs: group held cells and new observations by first edge.
	at := make([]int32, n+1) // group e is obs[at[e]:at[e+1]]
	for j, r := range s.pairs {
		at[r.key.First+1] += int32(len(s.pairCells(j)))
	}
	for i := range trs {
		for _, e := range trs[i].Edges[:max(len(trs[i].Edges)-1, 0)] {
			at[e+1]++
		}
	}
	for e := 0; e < n; e++ {
		at[e+1] += at[e]
	}
	next := slices.Clone(at[:n])
	obs := make([]pairObs, at[n])
	put := func(first graph.EdgeID, o pairObs) {
		obs[next[first]] = o
		next[first]++
	}
	for j, r := range s.pairs {
		for _, c := range s.pairCells(j) {
			put(r.key.First, pairObs{second: r.key.Second, i1: c.I1, i2: c.I2, n: c.N})
		}
	}
	for i := range trs {
		tr := &trs[i]
		for j := 1; j < len(tr.Edges); j++ {
			put(tr.Edges[j-1], pairObs{second: tr.Edges[j], i1: s.step(tr.Times[j-1]), i2: s.step(tr.Times[j]), n: 1})
		}
	}
	var pairs []pairRun
	var cells []Cell
	for e := 0; e < n; e++ {
		group := obs[at[e]:at[e+1]]
		slices.SortFunc(group, func(a, b pairObs) int {
			return cmp.Or(cmp.Compare(a.second, b.second), cmp.Compare(a.i1, b.i1), cmp.Compare(a.i2, b.i2))
		})
		for j, o := range group {
			newPair := j == 0 || group[j-1].second != o.second
			if !newPair && group[j-1].i1 == o.i1 && group[j-1].i2 == o.i2 {
				cells[len(cells)-1].N += o.n
				continue
			}
			if newPair {
				pairs = append(pairs, pairRun{key: PairKey{First: graph.EdgeID(e), Second: o.second}})
			}
			cells = append(cells, Cell{I1: o.i1, I2: o.i2, N: o.n})
			pairs[len(pairs)-1].end = int32(len(cells))
		}
	}
	// The store stays resident: keep what append grew at its length.
	s.edges, s.counts, s.pairs, s.cells = slices.Clone(edges), counts, slices.Clone(pairs), slices.Clone(cells)
}

// NumEdgeObservations returns the total count of edge traversals seen.
func (s *ObservationStore) NumEdgeObservations() int {
	return GridCounts{Counts: s.counts}.Total()
}

// Edges yields every observed edge with its counts, in ascending edge
// order. The counts are the store's: do not modify them.
func (s *ObservationStore) Edges() iter.Seq2[graph.EdgeID, GridCounts] {
	return func(yield func(graph.EdgeID, GridCounts) bool) {
		for j := range s.edges {
			if !yield(s.edges[j].id, s.edgeCounts(j)) {
				return
			}
		}
	}
}

// Joint returns the pair's joint counts, nil without observations. The
// counts are the store's: do not modify them.
func (s *ObservationStore) Joint(k PairKey) JointCounts {
	j, ok := slices.BinarySearchFunc(s.pairs, k, func(r pairRun, k PairKey) int {
		return cmp.Or(cmp.Compare(r.key.First, k.First), cmp.Compare(r.key.Second, k.Second))
	})
	if !ok {
		return nil
	}
	return s.pairCells(j)
}

// PairSumHist returns the empirical histogram of T1+T2 for the pair —
// the joint counts summed along anti-diagonals — or an error without
// observations.
func (s *ObservationStore) PairSumHist(k PairKey) (*hist.Hist, error) {
	sums, err := s.PairSumCounts(k, nil)
	if err != nil {
		return nil, err
	}
	return sums.Hist(s.Width), nil
}

// PairSumCounts returns the pair's T1+T2 counts on the grid, the joint
// counts summed along anti-diagonals, in buf's storage when its
// capacity suffices; an error without observations.
func (s *ObservationStore) PairSumCounts(k PairKey, buf []int32) (GridCounts, error) {
	cells := s.Joint(k)
	if len(cells) == 0 {
		return GridCounts{}, fmt.Errorf("traj: pair (%d,%d) has no observations", k.First, k.Second)
	}
	lo, hi := math.MaxInt, math.MinInt
	for _, c := range cells {
		lo, hi = min(lo, int(c.I1)+int(c.I2)), max(hi, int(c.I1)+int(c.I2))
	}
	sums := GridCounts{Lo: lo, Counts: slices.Grow(buf[:0], hi-lo+1)[:hi-lo+1]}
	clear(sums.Counts)
	for _, c := range cells {
		sums.Counts[int(c.I1)+int(c.I2)-lo] += c.N
	}
	return sums, nil
}

// PairsWithSupport returns the pair keys with at least minObs joint
// observations, ascending by (First, Second).
func (s *ObservationStore) PairsWithSupport(minObs int) []PairKey {
	var out []PairKey
	for j, r := range s.pairs {
		if s.pairCells(j).Total() >= minObs {
			out = append(out, r.key)
		}
	}
	return out
}

// DependenceTest runs a chi-square independence test on the pair's joint
// observations, bucketing each side into up to three *mode clusters*
// (groups of nearby values separated by gaps, which recovers latent
// congestion modes far more powerfully than quantile bins on discrete
// travel times). It errors when the pair lacks observations or either
// side has a single cluster (in which case the pair is trivially
// independent).
func (s *ObservationStore) DependenceTest(k PairKey) (stats.ChiSquareResult, error) {
	res, _, err := clusterTest(s.Joint(k))
	return res, err
}

// PairDependence returns DependenceTest's p-value, or 1 where it errors,
// and the mutual information (nats) of the same cluster table, 0 without
// observations.
func (s *ObservationStore) PairDependence(k PairKey) (p, mi float64) {
	res, mi, err := clusterTest(s.Joint(k))
	if err != nil {
		return 1, mi
	}
	return res.PValue, mi
}

// maxClusters is the most mode clusters a side of a dependence table has.
const maxClusters = 3

// clusterTest returns the chi-square test and mutual information
// (stats.Independence) of the cells' table over up to maxClusters mode
// clusters a side; no cells give an error and MI 0. The table, the cuts
// and the steps of a pair with up to 256 cells live on the stack.
func clusterTest(cells JointCounts) (stats.ChiSquareResult, float64, error) {
	var buf [256]int32
	steps := buf[:0]
	for i, c := range cells { // the cells ascend in I1 already
		if i == 0 || c.I1 != cells[i-1].I1 {
			steps = append(steps, c.I1)
		}
	}
	cuts1, n1 := clusterCuts(steps, maxClusters)
	steps = steps[:0]
	for _, c := range cells {
		steps = append(steps, c.I2)
	}
	slices.Sort(steps)
	cuts2, n2 := clusterCuts(slices.Compact(steps), maxClusters)
	var counts [maxClusters * maxClusters]float64
	table := stats.ContingencyTable{Rows: n1, Cols: n2, Counts: counts[:n1*n2]}
	for _, c := range cells {
		// A step equal to a cut belongs to the cluster below it.
		i, _ := slices.BinarySearch(cuts1[:n1-1], c.I1)
		j, _ := slices.BinarySearch(cuts2[:n2-1], c.I2)
		table.Add(i, j, float64(c.N))
	}
	return stats.Independence(&table)
}

// gap is a run of empty grid steps between two distinct steps: a
// cluster boundary placed after step after, size steps wide.
type gap struct{ after, size int32 }

// clusterCuts groups ascending distinct grid steps into up to most
// clusters (most <= maxClusters) separated by at least one empty step,
// and returns the boundaries, ascending, with the number of clusters.
// Travel times concentrate around latent congestion-mode values with at
// most ±1 grid step of observation noise, so gap clustering recovers the
// modes; quantile bins would cut *inside* a mode and dilute the
// dependence signal with independent noise. The widest gaps win; among
// equal ones, the order sort.Slice's pdqsort leaves them in, which
// slices.SortFunc repeats comparison for comparison.
func clusterCuts(distinct []int32, most int) (cuts [maxClusters - 1]int32, clusters int) {
	var buf [256]gap
	gaps := buf[:0]
	for i := 1; i < len(distinct); i++ {
		if d := distinct[i] - distinct[i-1]; d > 1 {
			gaps = append(gaps, gap{after: distinct[i-1], size: d})
		}
	}
	slices.SortFunc(gaps, func(a, b gap) int { return cmp.Compare(b.size, a.size) })
	n := min(len(gaps), most-1)
	for i, g := range gaps[:n] {
		cuts[i] = g.after
	}
	slices.Sort(cuts[:n])
	return cuts, n + 1
}

// PairCorrelation returns the Pearson correlation of the pair's joint
// observations in seconds: stats.Pearson over the observations expanded
// in cell order, so it is within rounding of Pearson over the samples in
// any order. Each sum adds a cell's term once per observation, in
// Pearson's order, without expanding them, so the result has Pearson's
// bits. It errors with fewer than two observations or a constant side.
func (s *ObservationStore) PairCorrelation(k PairKey) (float64, error) {
	cells := s.Joint(k)
	n := cells.Total()
	if n < 2 {
		return 0, errNoCorrelation
	}
	var mx, my float64
	for _, c := range cells {
		x, y := float64(c.I1)*s.Width, float64(c.I2)*s.Width
		for r := c.N; r > 0; r-- {
			mx += x
			my += y
		}
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for _, c := range cells {
		dx, dy := float64(c.I1)*s.Width-mx, float64(c.I2)*s.Width-my
		for r := c.N; r > 0; r-- {
			sxy += dx * dy
			sxx += dx * dx
			syy += dy * dy
		}
	}
	if sxx == 0 || syy == 0 {
		return 0, errNoCorrelation
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

var errNoCorrelation = errors.New("traj: correlation needs two joint observations and no constant side")

// Package traj implements the trajectory substrate that replaces the
// paper's GPS fleet data: a traffic *world model* with per-edge latent
// congestion modes that are spatially correlated across
// intersections, trajectory sampling from that model, and observation
// stores that expose exactly what the paper's learners see — per-edge
// samples and per-edge-pair joint samples.
//
// Because the world model is explicit, ground-truth joint distributions
// are computable analytically, which is what the paper's KL evaluation
// needs, and the fraction of dependent edge pairs is a configuration
// parameter (the paper reports ≈75% for the Danish network).
package traj

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/rng"
)

// WorldConfig parameterises the traffic world model.
type WorldConfig struct {
	// ModeFactors are the travel-time multipliers of the latent
	// congestion modes (free-flow, moderate, congested, ...), used for
	// any road category without an entry in CategoryFactors.
	ModeFactors []float64
	// CategoryFactors optionally overrides the mode multipliers per road
	// category. This is what gives the network its mean-vs-variance
	// structure: motorways stay near free flow in every mode while
	// residential streets degrade badly, so a reliable detour and a
	// risky direct route can have similar expected times — the regime
	// where stochastic routing beats mean-cost routing. All factor
	// vectors must have the same length as ModePrior. The mode *prior*
	// stays global so the latent chain remains stationary and the
	// analytic ground truths stay exact.
	CategoryFactors map[graph.RoadCategory][]float64
	// ModePrior is the stationary distribution over modes.
	ModePrior []float64
	// SlicePriors optionally makes the world time-of-day dependent: row
	// s is the mode prior in effect for trips departing in slice s of a
	// partition of the day into len(SlicePriors) equal slices (see
	// SliceIndex). Shifting prior mass toward the congested modes in
	// one slice synthesises a rush hour while the mode *times* stay
	// shared across slices. Nil (or a single row equal to ModePrior)
	// keeps the world time-homogeneous. Within one trip the prior of
	// the departure slice applies throughout, so the latent chain stays
	// stationary per trip and the per-slice analytic ground truths stay
	// exact. Build peaked tables with PeakedSlicePriors.
	SlicePriors [][]float64
	// Stickiness is the probability that the congestion mode carries
	// over when crossing a *dependent* intersection. 0 means modes are
	// redrawn independently (no dependence); 1 means perfectly coupled.
	Stickiness float64
	// DependentVertexProb is the probability that an intersection
	// couples the modes of consecutive edges. The paper reports ≈75% of
	// Danish edge pairs with data being dependent.
	DependentVertexProb float64
	// NoiseProb is the probability that an individual traversal deviates
	// by ±1 bucket from its mode's travel time.
	NoiseProb float64
	// EdgeBiasFrac perturbs each edge's mode times by a per-edge factor
	// in [1-f, 1+f] so no two edges are exactly alike.
	EdgeBiasFrac float64
	// BucketWidth is the global histogram grid width in seconds; every
	// travel time in the world lies on this grid.
	BucketWidth float64
	// Seed drives all world randomness (mode times, dependence flags).
	Seed uint64
}

// DefaultCategoryFactors returns per-category congestion multipliers:
// high-grade roads are reliable (tight spread around nominal), low-grade
// roads are volatile — usually at or better than nominal, occasionally
// far worse. Mean multipliers are deliberately close across categories
// so that the mean-fastest route and the most-reliable route genuinely
// diverge, the regime stochastic routing exists for.
func DefaultCategoryFactors() map[graph.RoadCategory][]float64 {
	return map[graph.RoadCategory][]float64{
		graph.Motorway:    {0.98, 1.0, 1.1},
		graph.Trunk:       {0.97, 1.0, 1.12},
		graph.Primary:     {0.95, 1.0, 1.15},
		graph.Secondary:   {0.95, 1.05, 1.25},
		graph.Tertiary:    {0.85, 1.0, 1.9},
		graph.Residential: {0.75, 1.0, 2.4},
		graph.Service:     {0.7, 1.0, 3.0},
	}
}

// DefaultWorldConfig is the world the default configs simulate: 3 modes,
// ≈75% dependent pairs, category-dependent congestion volatility.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		ModeFactors:         []float64{1.0, 1.6, 2.6},
		CategoryFactors:     DefaultCategoryFactors(),
		ModePrior:           []float64{0.55, 0.3, 0.15},
		Stickiness:          0.85,
		DependentVertexProb: 0.75,
		NoiseProb:           0.3,
		EdgeBiasFrac:        0.06,
		BucketWidth:         2.0,
		Seed:                7,
	}
}

// Validate reports whether the config is usable.
func (c WorldConfig) Validate() error {
	if len(c.ModeFactors) == 0 || len(c.ModeFactors) != len(c.ModePrior) {
		return errors.New("traj: ModeFactors and ModePrior must be non-empty and equal length")
	}
	total := 0.0
	for _, p := range c.ModePrior {
		if p < 0 {
			return errors.New("traj: negative mode prior")
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Errorf("traj: mode prior sums to %v, want 1", total)
	}
	for _, f := range c.ModeFactors {
		if f < 0.5 {
			return fmt.Errorf("traj: mode factor %v below 0.5", f)
		}
	}
	for cat, factors := range c.CategoryFactors {
		if len(factors) != len(c.ModePrior) {
			return fmt.Errorf("traj: category %v has %d factors, want %d", cat, len(factors), len(c.ModePrior))
		}
		for _, f := range factors {
			// Mode-0 factors slightly below 1 model better-than-nominal
			// flow (green waves, empty streets); anything below 0.5 is a
			// configuration error.
			if f < 0.5 {
				return fmt.Errorf("traj: category %v factor %v below 0.5", cat, f)
			}
		}
	}
	for s, prior := range c.SlicePriors {
		if len(prior) != len(c.ModePrior) {
			return fmt.Errorf("traj: slice %d prior has %d modes, want %d", s, len(prior), len(c.ModePrior))
		}
		total := 0.0
		for _, p := range prior {
			if p < 0 {
				return fmt.Errorf("traj: slice %d has a negative mode prior", s)
			}
			total += p
		}
		if math.Abs(total-1) > 1e-9 {
			return fmt.Errorf("traj: slice %d prior sums to %v, want 1", s, total)
		}
	}
	if c.Stickiness < 0 || c.Stickiness > 1 {
		return fmt.Errorf("traj: Stickiness %v outside [0,1]", c.Stickiness)
	}
	if c.DependentVertexProb < 0 || c.DependentVertexProb > 1 {
		return fmt.Errorf("traj: DependentVertexProb %v outside [0,1]", c.DependentVertexProb)
	}
	if c.NoiseProb < 0 || c.NoiseProb > 0.9 {
		return fmt.Errorf("traj: NoiseProb %v outside [0,0.9]", c.NoiseProb)
	}
	if c.BucketWidth <= 0 {
		return fmt.Errorf("traj: BucketWidth %v must be positive", c.BucketWidth)
	}
	return nil
}

// World is a frozen traffic world over a road graph: per-edge mode travel
// times on a global histogram grid and per-vertex dependence flags.
type World struct {
	g   *graph.Graph
	cfg WorldConfig

	// modeTime[e*M + m] is the grid-quantised travel time of edge e in
	// mode m, in seconds.
	modeTime []float64
	// depVertex[v] marks intersections that couple consecutive edges.
	depVertex []bool
}

// NewWorld freezes a world over g. The same (g, cfg) always yields the
// same world.
func NewWorld(g *graph.Graph, cfg WorldConfig) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	edgeRng := r.Split("edge-bias")
	vertexRng := r.Split("vertex-dependence")

	m := len(cfg.ModeFactors)
	w := &World{
		g:        g,
		cfg:      cfg,
		modeTime: make([]float64, g.NumEdges()*m),
		depVertex: func() []bool {
			dv := make([]bool, g.NumVertices())
			for v := range dv {
				dv[v] = vertexRng.Bool(cfg.DependentVertexProb)
			}
			return dv
		}(),
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		ff := ed.FreeFlowSeconds()
		bias := 1 + edgeRng.Range(-cfg.EdgeBiasFrac, cfg.EdgeBiasFrac)
		factors := cfg.ModeFactors
		if f, ok := cfg.CategoryFactors[ed.Category]; ok {
			factors = f
		}
		for mode := 0; mode < m; mode++ {
			t := ff * factors[mode] * bias
			q := math.Round(t/cfg.BucketWidth) * cfg.BucketWidth
			// Keep at least 2 buckets above zero so ±1-bucket noise
			// cannot produce non-positive travel times.
			if q < 2*cfg.BucketWidth {
				q = 2 * cfg.BucketWidth
			}
			// Distinct congestion modes must remain distinguishable
			// after grid quantisation (2 buckets apart keeps them
			// separable even under ±1-bucket noise); very short edges
			// would otherwise collapse all modes onto one value.
			if mode > 0 {
				if prev := w.modeTime[e*m+mode-1]; q < prev+2*cfg.BucketWidth {
					q = prev + 2*cfg.BucketWidth
				}
			}
			w.modeTime[e*m+mode] = q
		}
	}
	return w, nil
}

// Graph returns the underlying road graph.
func (w *World) Graph() *graph.Graph { return w.g }

// NumModes returns the number of latent congestion modes.
func (w *World) NumModes() int { return len(w.cfg.ModeFactors) }

// NumSlices returns the number of time-of-day slices the world models
// (1 for a time-homogeneous world).
func (w *World) NumSlices() int {
	if len(w.cfg.SlicePriors) == 0 {
		return 1
	}
	return len(w.cfg.SlicePriors)
}

// ModePriorAt returns the stationary mode prior in effect for trips
// departing in the given time-of-day slice. Slices outside the
// configured range (including everything when SlicePriors is nil) fall
// back to the global ModePrior, so slice 0 of a homogeneous world is
// exactly the classic behaviour.
func (w *World) ModePriorAt(slice int) []float64 {
	if slice >= 0 && slice < len(w.cfg.SlicePriors) {
		return w.cfg.SlicePriors[slice]
	}
	return w.cfg.ModePrior
}

// ModeTime returns the travel time of edge e in mode m.
func (w *World) ModeTime(e graph.EdgeID, m int) float64 {
	return w.modeTime[int(e)*w.NumModes()+m]
}

// IsDependentVertex reports whether the intersection couples the
// congestion modes of consecutive edges.
func (w *World) IsDependentVertex(v graph.VertexID) bool { return w.depVertex[v] }

// noisePMF returns the ±1-bucket traversal noise as (offsets in buckets,
// probabilities).
func (w *World) noisePMF() ([]int, []float64) {
	if w.cfg.NoiseProb == 0 {
		return []int{0}, []float64{1}
	}
	half := w.cfg.NoiseProb / 2
	return []int{-1, 0, 1}, []float64{half, 1 - w.cfg.NoiseProb, half}
}

// EdgeMarginal returns the analytic marginal travel-time distribution of
// edge e: the mode prior over mode times, convolved with traversal noise.
func (w *World) EdgeMarginal(e graph.EdgeID) *hist.Hist { return w.EdgeMarginalAt(e, 0) }

// EdgeMarginalAt is EdgeMarginal under the mode prior of the given
// time-of-day slice.
func (w *World) EdgeMarginalAt(e graph.EdgeID, slice int) *hist.Hist {
	width := w.cfg.BucketWidth
	prior := w.ModePriorAt(slice)
	offs, noiseP := w.noisePMF()
	masses := make(map[int]float64)
	loIdx, hiIdx := math.MaxInt32, math.MinInt32
	for mode := 0; mode < w.NumModes(); mode++ {
		base := int(math.Round(w.ModeTime(e, mode) / width))
		for k, off := range offs {
			idx := base + off
			masses[idx] += prior[mode] * noiseP[k]
			if idx < loIdx {
				loIdx = idx
			}
			if idx > hiIdx {
				hiIdx = idx
			}
		}
	}
	p := make([]float64, hiIdx-loIdx+1)
	for idx, m := range masses {
		p[idx-loIdx] = m
	}
	return hist.New(float64(loIdx)*width, width, p)
}

// transition returns P(m2 | m1) across vertex v under the given
// stationary prior (the departure slice's prior).
func (w *World) transition(v graph.VertexID, m1, m2 int, prior []float64) float64 {
	stick := 0.0
	if w.depVertex[v] {
		stick = w.cfg.Stickiness
	}
	p := (1 - stick) * prior[m2]
	if m1 == m2 {
		p += stick
	}
	return p
}

// PairModeJoint returns the joint mode distribution J[m1][m2] of a
// consecutive traversal of e1 then e2 through vertex via.
func (w *World) PairModeJoint(via graph.VertexID) [][]float64 {
	return w.PairModeJointAt(via, 0)
}

// PairModeJointAt is PairModeJoint under the mode prior of the given
// time-of-day slice.
func (w *World) PairModeJointAt(via graph.VertexID, slice int) [][]float64 {
	m := w.NumModes()
	prior := w.ModePriorAt(slice)
	j := make([][]float64, m)
	for m1 := 0; m1 < m; m1++ {
		j[m1] = make([]float64, m)
		for m2 := 0; m2 < m; m2++ {
			j[m1][m2] = prior[m1] * w.transition(via, m1, m2, prior)
		}
	}
	return j
}

// PairJointSum returns the analytic ground-truth distribution of
// T(e1) + T(e2) for a traversal of the pair through vertex via — the
// quantity the paper's estimation model learns.
func (w *World) PairJointSum(e1, e2 graph.EdgeID, via graph.VertexID) *hist.Hist {
	return w.PairJointSumAt(e1, e2, via, 0)
}

// PairJointSumAt is PairJointSum under the mode prior of the given
// time-of-day slice.
func (w *World) PairJointSumAt(e1, e2 graph.EdgeID, via graph.VertexID, slice int) *hist.Hist {
	width := w.cfg.BucketWidth
	offs, noiseP := w.noisePMF()
	joint := w.PairModeJointAt(via, slice)
	masses := make(map[int]float64)
	loIdx, hiIdx := math.MaxInt32, math.MinInt32
	for m1 := 0; m1 < w.NumModes(); m1++ {
		b1 := int(math.Round(w.ModeTime(e1, m1) / width))
		for m2 := 0; m2 < w.NumModes(); m2++ {
			jm := joint[m1][m2]
			if jm == 0 {
				continue
			}
			b2 := int(math.Round(w.ModeTime(e2, m2) / width))
			for k1, o1 := range offs {
				for k2, o2 := range offs {
					idx := b1 + b2 + o1 + o2
					masses[idx] += jm * noiseP[k1] * noiseP[k2]
					if idx < loIdx {
						loIdx = idx
					}
					if idx > hiIdx {
						hiIdx = idx
					}
				}
			}
		}
	}
	p := make([]float64, hiIdx-loIdx+1)
	for idx, m := range masses {
		p[idx-loIdx] = m
	}
	return hist.New(float64(loIdx)*width, width, p)
}

// PairIsDependent reports whether the pair through via is dependent in
// the world (ground-truth label for the classifier).
func (w *World) PairIsDependent(via graph.VertexID) bool {
	return w.depVertex[via] && w.cfg.Stickiness > 0
}

// DependentPairFraction returns the exact fraction of adjacent edge
// pairs whose intersection is dependent.
func (w *World) DependentPairFraction() float64 {
	total, dep := 0, 0
	for v := graph.VertexID(0); int(v) < w.g.NumVertices(); v++ {
		n := w.g.InDegree(v) * w.g.OutDegree(v)
		total += n
		if w.depVertex[v] {
			dep += n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(dep) / float64(total)
}

// PathTruth returns the exact distribution of the total travel time of a
// path (sequence of adjacent edges), under the full latent-mode Markov
// chain — the oracle the quality experiments evaluate candidate paths
// against. It returns an error if the edge sequence is not contiguous or
// empty.
func (w *World) PathTruth(edges []graph.EdgeID) (*hist.Hist, error) {
	return w.PathTruthAt(edges, 0)
}

// PathTruthExpanded returns the exact distribution of the total travel
// time of a path for a trip departing at depart seconds since
// midnight, under a TIME-EXPANDED world: the mode prior in effect at
// each intersection is the one of the slice the trip's accumulated
// mean travel time has reached, rather than the departure slice
// throughout. This is the oracle that time-expanded routing
// (cost model re-selected per extension from departure + accumulated
// mean) is evaluated against: it also returns the per-edge slice
// sequence the oracle traversed (slices[i] governed edges[i]). On a
// 1-slice world — or a trip that never leaves its departure slice —
// it is bit-identical to PathTruthAt of the departure slice.
func (w *World) PathTruthExpanded(depart float64, edges []graph.EdgeID) (*hist.Hist, []int, error) {
	k := w.NumSlices()
	slices := make([]int, len(edges))
	h, err := w.pathTruthChain(edges, func(step int, elapsedMean float64) []float64 {
		s := SliceIndex(depart+elapsedMean, k)
		slices[step] = s
		return w.ModePriorAt(s)
	})
	if err != nil {
		return nil, nil, err
	}
	return h, slices, nil
}

// PathTruthAt is PathTruth under the mode prior of the given
// time-of-day slice: the oracle distribution of a trip departing in
// that slice.
func (w *World) PathTruthAt(edges []graph.EdgeID, slice int) (*hist.Hist, error) {
	prior := w.ModePriorAt(slice)
	return w.pathTruthChain(edges, func(int, float64) []float64 { return prior })
}

// pathTruthChain runs the latent-mode Markov chain down a path — the
// shared numerics of PathTruthAt and PathTruthExpanded. priorAt
// returns the mode prior governing step i (the initial mode draw for
// step 0, the transition redraw at the intersection before edge i
// otherwise), given the expected travel time accumulated so far; a
// constant priorAt makes the two entry points bit-identical by
// construction.
func (w *World) pathTruthChain(edges []graph.EdgeID, priorAt func(step int, elapsedMean float64) []float64) (*hist.Hist, error) {
	if len(edges) == 0 {
		return nil, errors.New("traj: PathTruth on empty path")
	}
	width := w.cfg.BucketWidth
	offs, noiseP := w.noisePMF()
	m := w.NumModes()

	// perMode[mode] is a sub-distribution over accumulated grid indices
	// with total mass P(current mode = mode).
	type subDist struct {
		lo int
		p  []float64
	}
	// meanOf is the expected accumulated travel time across the mode
	// mixture — the elapsed clock a time-expanded priorAt selects by.
	meanOf := func(perMode []subDist) float64 {
		mean := 0.0
		for _, sd := range perMode {
			for j, mass := range sd.p {
				mean += mass * float64(sd.lo+j) * width
			}
		}
		return mean
	}

	prior := priorAt(0, 0)
	perMode := make([]subDist, m)
	e0 := edges[0]
	for mode := 0; mode < m; mode++ {
		base := int(math.Round(w.ModeTime(e0, mode) / width))
		p := make([]float64, 3)
		lo := base - 1
		for k, off := range offs {
			p[off+1] += prior[mode] * noiseP[k]
		}
		perMode[mode] = subDist{lo: lo, p: p}
	}

	for i := 1; i < len(edges); i++ {
		prev := w.g.Edge(edges[i-1])
		cur := w.g.Edge(edges[i])
		if prev.To != cur.From {
			return nil, fmt.Errorf("traj: PathTruth edges %d and %d not contiguous", i-1, i)
		}
		via := prev.To
		prior = priorAt(i, meanOf(perMode))
		// Mix accumulated distributions across the transition.
		mixedLo := math.MaxInt32
		mixedHi := math.MinInt32
		for _, sd := range perMode {
			if sd.lo < mixedLo {
				mixedLo = sd.lo
			}
			if sd.lo+len(sd.p)-1 > mixedHi {
				mixedHi = sd.lo + len(sd.p) - 1
			}
		}
		next := make([]subDist, m)
		for m2 := 0; m2 < m; m2++ {
			acc := make([]float64, mixedHi-mixedLo+1)
			for m1 := 0; m1 < m; m1++ {
				t := w.transition(via, m1, m2, prior)
				if t == 0 {
					continue
				}
				sd := perMode[m1]
				for j, mass := range sd.p {
					acc[sd.lo+j-mixedLo] += t * mass
				}
			}
			// Convolve with this edge's mode-m2 time plus noise.
			base := int(math.Round(w.ModeTime(edges[i], m2) / width))
			out := make([]float64, len(acc)+2)
			outLo := mixedLo + base - 1
			for j, mass := range acc {
				if mass == 0 {
					continue
				}
				for k, off := range offs {
					out[j+off+1] += mass * noiseP[k]
				}
			}
			next[m2] = subDist{lo: outLo, p: out}
		}
		perMode = next
	}

	lo, hi := math.MaxInt32, math.MinInt32
	for _, sd := range perMode {
		if sd.lo < lo {
			lo = sd.lo
		}
		if sd.lo+len(sd.p)-1 > hi {
			hi = sd.lo + len(sd.p) - 1
		}
	}
	p := make([]float64, hi-lo+1)
	for _, sd := range perMode {
		for j, mass := range sd.p {
			p[sd.lo+j-lo] += mass
		}
	}
	h := hist.New(float64(lo)*width, width, p)
	return h.Trim(), nil
}

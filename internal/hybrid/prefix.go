package hybrid

import (
	"math"
	"slices"

	"stochroute/internal/ml"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// Virtual-edge training (second phase). The paper trains the estimation
// model on two-edge pairs and then applies it to long pre-paths through
// the virtual-edge trick. Applied naively, pair-strength conditioning is
// over-applied on long paths: the latent congestion state is Markov in
// the *last edge's* mode, and the quantile band of the accumulated sum
// carries ever less information about it as the path grows. This phase
// therefore augments the pair dataset with examples harvested from
// trajectory *prefixes*: the virtual distribution is what the model
// itself would compute for the prefix, the band is where the observed
// prefix time actually fell, and the target is the observed next-edge
// time. The retrained estimator learns how much conditioning survives at
// each virtual length — long-path calibration the pair-only model lacks.

// buildPrefixDataset harvests up to maxRows (features, one-hot target)
// rows from trajectory prefixes, using the phase-1 model to compute
// virtual distributions and to skip extensions the classifier would
// convolve anyway.
//
// A trajectory's prefix ends are drawn first; neither the decision nor
// the costing consumes r. Then one pass through the scratch kernel
// extends the trajectory's path up to its longest drawn prefix and
// reads each prefix's distribution on the way, so every edge is
// extended once per trajectory. InitialHistInto and ExtendInto are
// bit-identical to PathCost's steps, so the rows are what PathCost
// gives; they are emitted in the order the ends were drawn.
func buildPrefixDataset(model *Model, trajs []traj.Trajectory, cfg EstimatorConfig, maxRows, perTrajectory int, r *rng.RNG) (x, y *ml.Matrix) {
	if maxRows <= 0 || len(trajs) == 0 {
		return nil, nil
	}
	kb := model.KB
	var (
		feats   []float64 // the rows' features, NumFeatures per row
		targets []int     // each row's one-hot index, band·CondBuckets + offset
		ends    []int     // this trajectory's prefix ends, in draw order
		s       Scratch
	)
	for _, ti := range r.Perm(len(trajs)) {
		if len(targets) >= maxRows {
			break
		}
		tr := &trajs[ti]
		if len(tr.Edges) < 3 {
			continue
		}
		// Sample prefix end positions (the index of the "next" edge).
		ends = ends[:0]
		for attempts := 0; attempts < 2*perTrajectory && len(ends) < perTrajectory && len(targets)+len(ends) < maxRows; attempts++ {
			i := 2 + r.Intn(len(tr.Edges)-2)
			if model.ShouldEstimate(tr.Edges[i-1], tr.Edges[i]) {
				ends = append(ends, i)
			}
		}
		if len(ends) == 0 {
			continue
		}
		first := len(targets)
		feats = append(feats, make([]float64, len(ends)*NumFeatures)...)
		targets = append(targets, make([]int, len(ends))...)
		longest := slices.Max(ends)

		s.Reset()
		virtual := model.InitialHistInto(&s, tr.Edges[0])
		prefixSum := 0.0
		for k := 1; ; k++ {
			// virtual is the distribution of tr.Edges[:k].
			prefixSum += tr.Times[k-1]
			for j, i := range ends {
				if i != k {
					continue
				}
				next := tr.Edges[i]
				band := BandOfValue(virtual, prefixSum, cfg.Bands)
				off := int(math.Round((tr.Times[i] - kb.Edge(next).MinTime) / kb.Width))
				off = min(max(off, 0), cfg.CondBuckets-1)
				ps, hasPair := kb.Pair(tr.Edges[i-1], next)
				s.feats = AppendFeatures(s.feats[:0], kb, virtual, next, ps, hasPair)
				copy(feats[(first+j)*NumFeatures:], s.feats)
				targets[first+j] = band*cfg.CondBuckets + off
			}
			if k == longest {
				break
			}
			extended := model.ExtendInto(&s, virtual, tr.Edges[k-1], tr.Edges[k])
			s.Arena.Recycle(virtual)
			virtual = extended
		}
	}
	if len(targets) == 0 {
		return nil, nil
	}
	x = &ml.Matrix{Rows: len(targets), Cols: NumFeatures, Data: feats}
	y = ml.NewMatrix(len(targets), cfg.Bands*cfg.CondBuckets)
	for i, c := range targets {
		y.Row(i)[c] = 1
	}
	return x, y
}

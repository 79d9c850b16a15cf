package exp

import (
	"fmt"
	"io"
	"text/tabwriter"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/par"
	"stochroute/internal/routing"
)

// ---------------------------------------------------------------------------
// E1 — the paper's motivating airport table.
// ---------------------------------------------------------------------------

// MotivatingResult holds the two paths of the paper's introduction.
type MotivatingResult struct {
	P1, P2         *hist.Hist
	Deadline       float64
	ProbP1, ProbP2 float64
	MeanP1, MeanP2 float64
	MeanPicksP2    bool // the pitfall: mean-cost routing prefers P2
	BudgetPicksP1  bool // budget routing prefers P1
}

// RunMotivating reproduces "Travel Time Distributions of Two Paths to
// the Airport": with a 60-minute deadline P1 (0.9) beats P2 (0.8) even
// though P2 has the lower mean (51 vs 53 minutes).
func RunMotivating(out io.Writer) (*MotivatingResult, error) {
	// Bucket midpoints of the paper's [40,50), [50,60), [60,70) rows.
	p1, err := hist.FromPairs(map[float64]float64{45: 0.3, 55: 0.6, 65: 0.1}, 10)
	if err != nil {
		return nil, err
	}
	p2, err := hist.FromPairs(map[float64]float64{45: 0.6, 55: 0.2, 65: 0.2}, 10)
	if err != nil {
		return nil, err
	}
	const deadline = 60.0
	r := &MotivatingResult{
		P1: p1, P2: p2, Deadline: deadline,
		ProbP1: p1.ProbWithinBudget(deadline),
		ProbP2: p2.ProbWithinBudget(deadline),
		MeanP1: p1.Mean(), MeanP2: p2.Mean(),
	}
	r.MeanPicksP2 = r.MeanP2 < r.MeanP1
	r.BudgetPicksP1 = r.ProbP1 > r.ProbP2

	fmt.Fprintln(out, "E1  Travel Time Distributions of Two Paths to the Airport (deadline 60 min)")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Travel time (mins)\t[40, 50)\t[50, 60)\t[60, 70)\tmean\tP(<=60)")
	fmt.Fprintf(tw, "P1\t%.1f\t%.1f\t%.1f\t%.0f\t%.1f\n", p1.P[0], p1.P[1], p1.P[2], r.MeanP1, r.ProbP1)
	fmt.Fprintf(tw, "P2\t%.1f\t%.1f\t%.1f\t%.0f\t%.1f\n", p2.P[0], p2.P[1], p2.P[2], r.MeanP2, r.ProbP2)
	tw.Flush()
	fmt.Fprintf(out, "mean-cost routing picks P2: %v; budget routing picks P1: %v\n\n",
		r.MeanPicksP2, r.BudgetPicksP1)
	return r, nil
}

// ---------------------------------------------------------------------------
// E2 — convolution vs. estimation motivating example.
// ---------------------------------------------------------------------------

// ConvVsTruthResult holds the literal worked example plus the aggregate
// over generated dependent pairs.
type ConvVsTruthResult struct {
	H1, H2       *hist.Hist
	Convolved    *hist.Hist
	Truth        *hist.Hist
	KLConvWorked float64

	// Aggregate over the setup's dependent test pairs (from E4's report).
	MeanKLConvDependent   float64
	MeanKLHybridDependent float64
}

// RunConvVsTruth reproduces the poster's "Convolution vs. Estimation"
// tables: two observed trajectories T1 = (10, 20) and T2 = (15, 25)
// yield marginals H1 = {10:.5, 15:.5} and H2 = {20:.5, 25:.5}; their
// convolution invents the 35-second outcome that never occurs, while the
// ground truth is {30:.5, 40:.5}. The aggregate columns come from the
// trained setup when provided (nil setup prints only the worked example).
func RunConvVsTruth(s *Setup, out io.Writer) (*ConvVsTruthResult, error) {
	h1, err := hist.FromPairs(map[float64]float64{10: 0.5, 15: 0.5}, 5)
	if err != nil {
		return nil, err
	}
	h2, err := hist.FromPairs(map[float64]float64{20: 0.5, 25: 0.5}, 5)
	if err != nil {
		return nil, err
	}
	conv := hist.MustConvolve(h1, h2)
	truth, err := hist.FromPairs(map[float64]float64{30: 0.5, 40: 0.5}, 5)
	if err != nil {
		return nil, err
	}
	kl, err := hist.KL(truth, conv, 1e-6)
	if err != nil {
		return nil, err
	}
	r := &ConvVsTruthResult{H1: h1, H2: h2, Convolved: conv, Truth: truth, KLConvWorked: kl}

	fmt.Fprintln(out, "E2  Convolution vs. Estimation (worked example from the paper)")
	fmt.Fprintf(out, "  H1 = %v\n  H2 = %v\n", h1, h2)
	fmt.Fprintf(out, "  H1 (x) H2      = %v   <- convolution invents mass at 35\n", conv)
	fmt.Fprintf(out, "  ground truth   = %v\n", truth)
	fmt.Fprintf(out, "  KL(truth || convolution) = %.4f\n", kl)
	if s != nil && s.Report != nil {
		r.MeanKLConvDependent = s.Report.MeanKLConvDep
		r.MeanKLHybridDependent = s.Report.MeanKLHybridDep
		fmt.Fprintf(out, "  over %d generated test pairs (dependent only): KL(conv)=%.4f  KL(hybrid)=%.4f\n",
			s.Report.TestPairs, r.MeanKLConvDependent, r.MeanKLHybridDependent)
	}
	fmt.Fprintln(out)
	return r, nil
}

// ---------------------------------------------------------------------------
// E3 — fraction of dependent edge pairs.
// ---------------------------------------------------------------------------

// DependenceResult summarises the dependence scan.
type DependenceResult struct {
	PairsTested   int
	DependentFrac float64 // chi-square at alpha
	WorldTrueFrac float64 // analytic fraction in the world model
	TestAccuracy  float64 // chi-square label vs world truth
	Alpha         float64
}

// RunDependence reproduces the paper's "approximately 75% of all edge
// pairs with data are dependent" statistic by chi-square testing every
// pair with enough observations.
func RunDependence(s *Setup, alpha float64, out io.Writer) (*DependenceResult, error) {
	pairs := s.Obs.PairsWithSupport(20)
	if len(pairs) == 0 {
		return nil, fmt.Errorf("exp: no pairs with enough observations")
	}
	oracle := &WorldOracle{World: s.World}
	dep, correct := 0, 0
	for _, k := range pairs {
		res, err := s.Obs.DependenceTest(k, 3, alpha)
		isDep := err == nil && res.Dependent(alpha)
		if isDep {
			dep++
		}
		if isDep == oracle.PairDependent(k) {
			correct++
		}
	}
	r := &DependenceResult{
		PairsTested:   len(pairs),
		DependentFrac: float64(dep) / float64(len(pairs)),
		WorldTrueFrac: s.World.DependentPairFraction(),
		TestAccuracy:  float64(correct) / float64(len(pairs)),
		Alpha:         alpha,
	}
	fmt.Fprintln(out, "E3  Dependent edge pairs (paper: ~75% of pairs with data)")
	fmt.Fprintf(out, "  pairs tested: %d, chi-square(alpha=%.2f) dependent: %.1f%%, world truth: %.1f%%, test accuracy: %.1f%%\n\n",
		r.PairsTested, alpha, 100*r.DependentFrac, 100*r.WorldTrueFrac, 100*r.TestAccuracy)
	return r, nil
}

// ---------------------------------------------------------------------------
// E4 — hybrid model quality (KL divergence, 4000/1000 protocol).
// ---------------------------------------------------------------------------

// RunKLEval prints the model-quality report captured during setup.
func RunKLEval(s *Setup, out io.Writer) error {
	rep := s.Report
	if rep == nil {
		return fmt.Errorf("exp: setup has no evaluation report")
	}
	fmt.Fprintln(out, "E4  Hybrid model quality (KL divergence to ground truth)")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "train pairs\t%d\n", rep.TrainPairs)
	fmt.Fprintf(tw, "test pairs\t%d\n", rep.TestPairs)
	fmt.Fprintf(tw, "KL hybrid\t%.4f\n", rep.MeanKLHybrid)
	fmt.Fprintf(tw, "KL convolution\t%.4f\n", rep.MeanKLConv)
	fmt.Fprintf(tw, "KL estimate-only\t%.4f\n", rep.MeanKLEstimate)
	fmt.Fprintf(tw, "KL hybrid (dependent pairs)\t%.4f\n", rep.MeanKLHybridDep)
	fmt.Fprintf(tw, "KL convolution (dependent pairs)\t%.4f\n", rep.MeanKLConvDep)
	fmt.Fprintf(tw, "KL hybrid (independent pairs)\t%.4f\n", rep.MeanKLHybridInd)
	fmt.Fprintf(tw, "KL convolution (independent pairs)\t%.4f\n", rep.MeanKLConvInd)
	fmt.Fprintf(tw, "dependent fraction (test)\t%.1f%%\n", 100*rep.DependentFrac)
	fmt.Fprintf(tw, "classifier accuracy\t%.3f\n", rep.ClassifierConfusion.Accuracy())
	fmt.Fprintf(tw, "classifier F1\t%.3f\n", rep.ClassifierConfusion.F1())
	fmt.Fprintf(tw, "classifier AUC\t%.3f\n", rep.ClassifierAUC)
	tw.Flush()
	fmt.Fprintln(out)
	return nil
}

// ---------------------------------------------------------------------------
// E5 — routing quality per distance category under anytime limits.
// ---------------------------------------------------------------------------

// AnytimeExpansions returns the expansion budgets standing in for the
// paper's 1/5/10-second anytime limits (deterministic, machine
// independent). Index order: P1, P5, P10.
func AnytimeExpansions(scale Scale) []int {
	switch scale {
	case Small:
		return []int{150, 750, 1500}
	case Medium:
		return []int{1000, 5000, 10000}
	default:
		return []int{2000, 10000, 20000}
	}
}

// QualityRow is one row of the paper's Quality table. The headline
// numbers (matching the paper's 13%/53%/60% reading) are the fractions
// of queries in which PBR's path strictly beats the mean-cost baseline
// on true on-time probability; the mean improvement in percentage
// points is reported alongside. Column order: P∞, P1, P5, P10.
type QualityRow struct {
	Category     string
	Queries      int
	ImprovedFrac []float64 // fraction of queries improved, [P∞, P1, P5, P10]
	Improvement  []float64 // mean percentage points, [P∞, P1, P5, P10]
	MeanBaseProb float64
	MeanPBRProb  float64 // at P∞
}

// QualityConfig tunes the E5 protocol.
type QualityConfig struct {
	// BudgetQuantile sets each query's deadline to this quantile of the
	// mean-cost baseline path's *convolution-model* distribution. A
	// moderately generous deadline (default 0.75) is the regime the
	// paper's introduction describes: heavy congestion tails are what
	// make a nominally fast route miss it, and only a dependence-aware
	// model can see which routes carry that tail risk. The quantile is
	// computed model-side (no oracle leak) and scales correctly with
	// query length, unlike a fixed multiple of the optimistic time.
	BudgetQuantile float64
}

// DefaultQualityConfig is the protocol cmd/experiments runs: deadlines
// at the 0.6 quantile.
func DefaultQualityConfig() QualityConfig { return QualityConfig{BudgetQuantile: 0.6} }

// switchMarginFor returns the decisive-switch margin for a query whose
// baseline path has the given edge count. The hybrid model's path-level
// ranking noise compounds with length, so leaving a known-good baseline
// requires a proportionally stronger modelled advantage.
func switchMarginFor(baseEdges int) float64 {
	m := 0.015 + 0.0012*float64(baseEdges)
	if m > 0.2 {
		m = 0.2
	}
	return m
}

// RunQuality reproduces the paper's Quality table. For every query the
// deadline is the BudgetQuantile of the baseline path's convolution
// distribution; PBR runs with the hybrid model under each anytime limit;
// returned paths are scored by their *true* on-time probability (world
// oracle), and the row reports the mean improvement over the mean-cost
// baseline path in percentage points.
func RunQuality(s *Setup, cfg QualityConfig, out io.Writer) ([]QualityRow, error) {
	limits := append([]int{0}, AnytimeExpansions(s.Scale)...) // P∞ first
	var rows []QualityRow
	for _, cat := range Categories(s.Scale) {
		qs := s.Queries[cat.String()]
		type queryOutcome struct {
			ok       bool
			baseProb float64
			probs    []float64 // per limit
		}
		outcomes := make([]queryOutcome, len(qs))
		catName := cat.String()
		err := par.For(len(qs), func(i int) error {
			q := qs[i]
			basePath, _, err := routing.MeanCostPath(s.Graph, s.KB, q.Source, q.Dest)
			if err != nil {
				return nil // skip query
			}
			baseTrue, err := s.World.PathTruth(basePath)
			if err != nil {
				return err
			}
			budget, err := queryBudget(s, q, cfg.BudgetQuantile)
			if err != nil {
				return nil // skip query
			}
			out := queryOutcome{
				ok:       true,
				baseProb: baseTrue.ProbWithinBudget(budget),
				probs:    make([]float64, len(limits)),
			}
			conv := &hybrid.ConvolutionCoster{KB: s.KB, MaxBuckets: 1024}
			baseConv, err := hybrid.PathCost(conv, basePath)
			if err != nil {
				return err
			}
			baseConvProb := baseConv.ProbWithinBudget(budget)
			for li, limit := range limits {
				res, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{
					Budget:        budget,
					MaxExpansions: limit,
					SeedPath:      basePath,
					SwitchMargin:  switchMarginFor(len(basePath)),
				})
				if err != nil {
					return fmt.Errorf("exp: PBR %s query: %w", catName, err)
				}
				path := res.Path
				// Second-opinion veto: accept a switch away from the
				// baseline only if the convolution model does not
				// clearly contradict it. The two models err differently
				// (independence bias vs learned-drift noise); a path
				// only one of them likes is usually a fantasy of that
				// model.
				if res.Found && len(path) > 0 && !samePath(path, basePath) {
					altConv, err := hybrid.PathCost(conv, path)
					if err != nil {
						return err
					}
					if altConv.ProbWithinBudget(budget) < baseConvProb-0.02 {
						path = basePath
					}
				}
				prob := 0.0
				if res.Found && len(path) > 0 {
					pbrTrue, err := s.World.PathTruth(path)
					if err != nil {
						return err
					}
					prob = pbrTrue.ProbWithinBudget(budget)
				} else if res.Found {
					prob = out.baseProb // degenerate s==d
				}
				out.probs[li] = prob
			}
			outcomes[i] = out
			return nil
		})
		if err != nil {
			return nil, err
		}

		row := QualityRow{
			Category:     catName,
			ImprovedFrac: make([]float64, len(limits)),
			Improvement:  make([]float64, len(limits)),
		}
		var sumBase, sumPBR float64
		used := 0
		for _, out := range outcomes {
			if !out.ok {
				continue
			}
			used++
			sumBase += out.baseProb
			for li, prob := range out.probs {
				row.Improvement[li] += 100 * (prob - out.baseProb)
				if prob > out.baseProb+0.005 {
					row.ImprovedFrac[li]++
				}
				if li == 0 {
					sumPBR += prob
				}
			}
		}
		if used == 0 {
			return nil, fmt.Errorf("exp: no usable queries in category %s", catName)
		}
		for li := range row.Improvement {
			row.Improvement[li] /= float64(used)
			row.ImprovedFrac[li] /= float64(used)
		}
		row.Queries = used
		row.MeanBaseProb = sumBase / float64(used)
		row.MeanPBRProb = sumPBR / float64(used)
		rows = append(rows, row)
	}

	fmt.Fprintln(out, "E5  Quality: % of queries where PBR's path beats the mean-cost baseline")
	fmt.Fprintf(out, "     (true on-time probability; anytime expansion budgets %v stand in for 1/5/10 s)\n", AnytimeExpansions(s.Scale))
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dist (km)\tP∞\tP1\tP5\tP10\tmean Δ at P∞\tqueries\tbase P\tPBR P")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%+.1fpp\t%d\t%.2f\t%.2f\n",
			r.Category, 100*r.ImprovedFrac[0], 100*r.ImprovedFrac[1], 100*r.ImprovedFrac[2], 100*r.ImprovedFrac[3],
			r.Improvement[0], r.Queries, r.MeanBaseProb, r.MeanPBRProb)
	}
	tw.Flush()
	fmt.Fprintln(out)
	return rows, nil
}

// ---------------------------------------------------------------------------
// E6 — routing efficiency per distance category.
// ---------------------------------------------------------------------------

// EfficiencyRow is one row of the paper's Efficiency table.
type EfficiencyRow struct {
	Category       string
	Queries        int
	MeanSeconds    float64
	MeanExpansions float64
	MeanLabels     float64
}

// RunEfficiency reproduces the paper's Efficiency table: mean wall-clock
// time of the full (non-anytime) PBR search per distance category.
func RunEfficiency(s *Setup, out io.Writer) ([]EfficiencyRow, error) {
	var rows []EfficiencyRow
	for _, cat := range Categories(s.Scale) {
		qs := s.Queries[cat.String()]
		row := EfficiencyRow{Category: cat.String()}
		for _, q := range qs {
			budget, err := queryBudget(s, q, 0.75)
			if err != nil {
				continue
			}
			res, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, routing.Options{Budget: budget})
			if err != nil {
				return nil, err
			}
			row.Queries++
			row.MeanSeconds += res.Runtime.Seconds()
			row.MeanExpansions += float64(res.Expansions)
			row.MeanLabels += float64(res.GeneratedLabels)
		}
		if row.Queries == 0 {
			return nil, fmt.Errorf("exp: no usable queries in category %s", cat)
		}
		row.MeanSeconds /= float64(row.Queries)
		row.MeanExpansions /= float64(row.Queries)
		row.MeanLabels /= float64(row.Queries)
		rows = append(rows, row)
	}
	fmt.Fprintln(out, "E6  Efficiency: mean full-search runtime per distance category")
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Dist (km)\tMean (sec)\texpansions\tlabels\tqueries")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.0f\t%.0f\t%d\n",
			r.Category, r.MeanSeconds, r.MeanExpansions, r.MeanLabels, r.Queries)
	}
	tw.Flush()
	fmt.Fprintln(out)
	return rows, nil
}

func samePath(a, b []graph.EdgeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// queryBudget returns the deadline for a query: the given quantile of
// the mean-cost baseline path's convolution-model distribution. Both
// the baseline and PBR are judged against the same deadline, and no
// oracle information leaks into it.
func queryBudget(s *Setup, q netgen.Query, quantile float64) (float64, error) {
	basePath, _, err := routing.MeanCostPath(s.Graph, s.KB, q.Source, q.Dest)
	if err != nil {
		return 0, err
	}
	coster := &hybrid.ConvolutionCoster{KB: s.KB, MaxBuckets: 1024}
	baseDist, err := hybrid.PathCost(coster, basePath)
	if err != nil {
		return 0, err
	}
	return baseDist.Quantile(quantile), nil
}

// ---------------------------------------------------------------------------
// E7 — pruning ablation.
// ---------------------------------------------------------------------------

// AblationRow reports the search cost of one pruning variant.
type AblationRow struct {
	Variant        string
	Queries        int
	MeanExpansions float64
	MeanLabels     float64
	MeanSeconds    float64
	MeanProb       float64
}

// RunAblation measures the contribution of each pruning (and of the
// classifier) on the middle distance category.
func RunAblation(s *Setup, out io.Writer) ([]AblationRow, error) {
	cats := Categories(s.Scale)
	cat := cats[len(cats)/2]
	qs := s.Queries[cat.String()]
	type variant struct {
		name string
		opts routing.Options
		mode hybrid.ClassifierMode
	}
	variants := []variant{
		{name: "full", mode: hybrid.Auto},
		{name: "no-potential (a)", opts: routing.Options{DisablePotentialPruning: true}, mode: hybrid.Auto},
		{name: "no-pivot (b,c)", opts: routing.Options{DisablePivotPruning: true}, mode: hybrid.Auto},
		{name: "no-dominance (d)", opts: routing.Options{DisableDominancePruning: true}, mode: hybrid.Auto},
		{name: "always-convolve", mode: hybrid.AlwaysConvolve},
		{name: "always-estimate", mode: hybrid.AlwaysEstimate},
	}
	var rows []AblationRow
	for _, v := range variants {
		row := AblationRow{Variant: v.name}
		prevMode := s.Model.Mode
		s.Model.Mode = v.mode
		for _, q := range qs {
			budget, err := queryBudget(s, q, 0.75)
			if err != nil {
				continue
			}
			opts := v.opts
			opts.Budget = budget
			// Unpruned variants can explode; cap them in anytime mode
			// so the row reports the (capped) effort instead of erroring.
			opts.MaxExpansions = 150000
			opts.MaxLabels = 8_000_000
			res, err := routing.PBR(s.Graph, s.Model, q.Source, q.Dest, opts)
			if err != nil {
				return nil, err
			}
			row.Queries++
			row.MeanExpansions += float64(res.Expansions)
			row.MeanLabels += float64(res.GeneratedLabels)
			row.MeanSeconds += res.Runtime.Seconds()
			if res.Found && len(res.Path) > 0 {
				pbrTrue, err := s.World.PathTruth(res.Path)
				if err != nil {
					return nil, err
				}
				row.MeanProb += pbrTrue.ProbWithinBudget(budget)
			}
		}
		s.Model.Mode = prevMode
		if row.Queries > 0 {
			row.MeanExpansions /= float64(row.Queries)
			row.MeanLabels /= float64(row.Queries)
			row.MeanSeconds /= float64(row.Queries)
			row.MeanProb /= float64(row.Queries)
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(out, "E7  Pruning/classifier ablation on %s km queries\n", cat)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "variant\texpansions\tlabels\tsec\ttrue P(on time)")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.3f\t%.3f\n",
			r.Variant, r.MeanExpansions, r.MeanLabels, r.MeanSeconds, r.MeanProb)
	}
	tw.Flush()
	fmt.Fprintln(out)
	return rows, nil
}

package exp

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"stochroute"
)

// E8 — the anytime quality curve (the figure implied by the paper's
// anytime extension): how solution quality grows with the allowed search
// effort, from "return the first pivot" to the full search.

// AnytimePoint is one point of the curve.
type AnytimePoint struct {
	Expansions   int     // search budget (0 = unlimited)
	MeanProb     float64 // mean true on-time probability of returned paths
	MeanRuntime  float64 // seconds
	CompleteFrac float64 // fraction of queries whose search finished
}

// RunAnytimeCurve sweeps expansion budgets on the longest distance
// category and reports the quality/effort trade-off curve.
func RunAnytimeCurve(s *Setup, out io.Writer) ([]AnytimePoint, error) {
	cats := Categories(s.Scale)
	cat := cats[len(cats)-1]
	qs := s.Queries[cat.String()]
	budgets := anytimeSweep(s.Scale)

	var points []AnytimePoint
	for _, limit := range budgets {
		pt := AnytimePoint{Expansions: limit}
		used := 0
		for _, q := range qs {
			budget, err := s.Engine.QuantileBudget(0, q.Source, q.Dest, 0.75)
			if err != nil {
				continue
			}
			basePath, _, err := s.Engine.MeanRoute(q.Source, q.Dest)
			if err != nil {
				continue
			}
			res, err := s.Engine.RouteCtx(context.Background(), q.Source, q.Dest, stochroute.RouteOptions{
				Budget:        budget,
				MaxExpansions: limit,
				SeedPath:      basePath,
				SwitchMargin:  switchMarginFor(len(basePath)),
			})
			if err != nil {
				return nil, err
			}
			if !res.Found || len(res.Path) == 0 {
				continue
			}
			truth, err := s.Engine.TrueDistribution(res.Path)
			if err != nil {
				return nil, err
			}
			pt.MeanProb += truth.ProbWithinBudget(budget)
			pt.MeanRuntime += res.Runtime.Seconds()
			if res.Complete {
				pt.CompleteFrac++
			}
			used++
		}
		if used == 0 {
			return nil, fmt.Errorf("exp: anytime curve had no usable queries in %s", cat)
		}
		pt.MeanProb /= float64(used)
		pt.MeanRuntime /= float64(used)
		pt.CompleteFrac /= float64(used)
		points = append(points, pt)
	}

	fmt.Fprintf(out, "E8  Anytime quality curve on %s km queries (true on-time probability vs search effort)\n", cat)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "expansions\tmean P(on time)\tmean sec\tcomplete")
	for _, pt := range points {
		name := fmt.Sprintf("%d", pt.Expansions)
		if pt.Expansions == 0 {
			name = "unlimited"
		}
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.0f%%\n", name, pt.MeanProb, pt.MeanRuntime, 100*pt.CompleteFrac)
	}
	tw.Flush()
	fmt.Fprintln(out)
	return points, nil
}

// anytimeSweep returns the expansion budgets of the curve.
func anytimeSweep(scale Scale) []int {
	switch scale {
	case Small:
		return []int{25, 75, 150, 400, 1500, 0}
	case Medium:
		return []int{250, 1000, 2500, 5000, 10000, 25000, 0}
	default:
		return []int{500, 2000, 5000, 10000, 20000, 50000, 0}
	}
}

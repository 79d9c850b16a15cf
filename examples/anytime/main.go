// Anytime: the paper's anytime extension. The same budget query runs
// under shrinking run-time limits; the algorithm returns the pivot path
// (best complete candidate so far) when the limit expires, trading
// quality for latency.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"stochroute"
)

func main() {
	log.SetFlags(0)

	cfg := stochroute.DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 40, 40
	cfg.Network.CellMeters = 120
	cfg.Walk.NumTrajectories = 10000
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 1200, 300
	cfg.Hybrid.MinPairObs = 12
	cfg.Hybrid.Estimator.Train.Epochs = 40

	engine, err := stochroute.BuildEngine(cfg, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	queries, err := engine.SampleQueries(2.0, 4.0, 1, 11)
	if err != nil {
		log.Fatal(err)
	}
	q := queries[0]
	optimistic, err := engine.OptimisticTime(q.Source, q.Dest)
	if err != nil {
		log.Fatal(err)
	}
	budget := 1.35 * optimistic
	fmt.Printf("\nquery: %.1f km straight line, budget %.0fs\n\n", q.DistKm, budget)

	ctx := context.Background()
	// Wall-clock anytime limits, then the unlimited search.
	limits := []time.Duration{2 * time.Millisecond, 10 * time.Millisecond, 50 * time.Millisecond, 0}
	fmt.Printf("%-12s %-10s %-12s %-10s %s\n", "limit", "P(on time)", "expansions", "complete", "runtime")
	for _, limit := range limits {
		res, err := engine.RouteCtx(ctx, q.Source, q.Dest, stochroute.RouteOptions{
			Budget:      budget,
			MaxDuration: limit,
		})
		if err != nil {
			log.Fatal(err)
		}
		name := "unlimited"
		if limit > 0 {
			name = limit.String()
		}
		prob := 0.0
		if res.Found {
			prob = res.Prob
		}
		fmt.Printf("%-12s %-10.3f %-12d %-10v %v\n",
			name, prob, res.Expansions, res.Complete, res.Runtime.Round(time.Microsecond))
	}

	// Deterministic expansion budgets (the benchmark mode).
	fmt.Println("\nexpansion-budget mode (machine independent):")
	for _, exp := range []int{100, 500, 2500, 0} {
		res, err := engine.RouteCtx(ctx, q.Source, q.Dest, stochroute.RouteOptions{
			Budget:        budget,
			MaxExpansions: exp,
		})
		if err != nil {
			log.Fatal(err)
		}
		name := "unlimited"
		if exp > 0 {
			name = fmt.Sprintf("%d pops", exp)
		}
		prob := 0.0
		if res.Found {
			prob = res.Prob
		}
		fmt.Printf("%-12s P=%.3f complete=%v\n", name, prob, res.Complete)
	}
}

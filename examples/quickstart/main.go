// Quickstart: build a small city, train the hybrid model, and answer one
// probabilistic budget-routing query through the public API.
package main

import (
	"fmt"
	"log"
	"os"

	"stochroute"
)

func main() {
	log.SetFlags(0)

	// A ~30x30-block synthetic city keeps the demo under a minute.
	cfg := stochroute.DefaultConfig()
	cfg.Network.Rows, cfg.Network.Cols = 30, 30
	cfg.Network.CellMeters = 120
	cfg.Walk.NumTrajectories = 6000
	cfg.Hybrid.TrainPairs, cfg.Hybrid.TestPairs = 800, 200
	cfg.Hybrid.MinPairObs = 12
	cfg.Hybrid.Estimator.Train.Epochs = 40

	engine, err := stochroute.BuildEngine(cfg, os.Stderr)
	if err != nil {
		log.Fatal(err)
	}

	// Snap two coordinates to the network and query.
	src := engine.NearestVertex(57.005, 9.905)
	dst := engine.NearestVertex(57.028, 9.940)
	optimistic, err := engine.OptimisticTime(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	budget := 1.35 * optimistic // a deadline 35% above the ideal drive

	res, err := engine.Route(src, dst, budget)
	if err != nil {
		log.Fatal(err)
	}
	if !res.Found {
		log.Fatal("no path found")
	}
	fmt.Printf("\nbudget %.0fs: best path has %d edges\n", budget, len(res.Path))
	fmt.Printf("P(arrive on time) = %.3f, expected time = %.0fs\n", res.Prob, res.Dist.Mean())

	// Contrast with the classical mean-cost route.
	basePath, baseMean, err := engine.MeanRoute(src, dst)
	if err != nil {
		log.Fatal(err)
	}
	baseDist, err := engine.PathDistributionAt(0, basePath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean-cost baseline: P(on time) = %.3f, expected time = %.0fs\n",
		baseDist.ProbWithinBudget(budget), baseMean)
}

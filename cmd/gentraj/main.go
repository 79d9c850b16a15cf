// Command gentraj simulates vehicle trajectories over a generated
// network using the traffic world model (the stand-in for GPS fleet
// data) and writes them in the SRT2 binary format (each trip carries a
// departure timestamp).
//
// Usage:
//
//	gentraj -net net.srg -n 30000 -out trips.srt
//
// With -slices k the day is partitioned into k time-of-day slices and
// each trip draws a departure; -peak s makes slice s a rush hour by
// shifting -peak-shift of the mode-prior mass onto the most congested
// mode there. -slice-weights concentrates departures (e.g. a one-hot
// vector synthesises a stream that hits only the peak slice — pair it
// with -congestion and cmd/replay to demo per-slice drift rebuilds).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"stochroute/internal/graph"
	"stochroute/internal/traj"
)

// parseWeights parses a comma-separated float list ("0,1,0,0").
func parseWeights(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("weight %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("gentraj: ")

	netPath := flag.String("net", "net.srg", "input network file (SRG1)")
	n := flag.Int("n", 30000, "number of trajectories")
	minEdges := flag.Int("min", 4, "minimum edges per trajectory")
	maxEdges := flag.Int("max", 30, "maximum edges per trajectory")
	depProb := flag.Float64("dep", 0.75, "probability an intersection couples adjacent edges")
	stickiness := flag.Float64("stick", 0.85, "congestion-mode carry-over probability at dependent intersections")
	noise := flag.Float64("noise", 0, "per-traversal ±1-bucket noise probability")
	congestion := flag.Float64("congestion", 1, "scale every congestion-mode multiplier (e.g. 2 = traffic twice as slow; feed the result to cmd/replay to exercise drift detection)")
	slices := flag.Int("slices", 1, "partition the day into this many time-of-day slices (1 = time-homogeneous)")
	peak := flag.Int("peak", -1, "slice index to turn into a rush hour (-1 = none; requires -slices > 1)")
	peakShift := flag.Float64("peak-shift", 0.35, "fraction of mode-prior mass shifted onto the most congested mode in the -peak slice")
	sliceWeights := flag.String("slice-weights", "", "comma-separated departure weights per slice (default uniform; e.g. 0,1,0,0 streams only the AM peak)")
	width := flag.Float64("width", 2, "travel-time grid width in seconds")
	worldSeed := flag.Uint64("world-seed", 7, "world model seed")
	walkSeed := flag.Uint64("walk-seed", 99, "trajectory sampling seed")
	out := flag.String("out", "trips.srt", "output file")
	flag.Parse()

	f, err := os.Open(*netPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	worldCfg := traj.DefaultWorldConfig()
	worldCfg.DependentVertexProb = *depProb
	worldCfg.Stickiness = *stickiness
	worldCfg.NoiseProb = *noise
	worldCfg.BucketWidth = *width
	worldCfg.Seed = *worldSeed
	if *congestion != 1 {
		for i := range worldCfg.ModeFactors {
			worldCfg.ModeFactors[i] *= *congestion
		}
		for _, factors := range worldCfg.CategoryFactors {
			for i := range factors {
				factors[i] *= *congestion
			}
		}
	}
	if *slices > 1 {
		priors, err := traj.PeakedSlicePriors(worldCfg.ModePrior, *slices, *peak, *peakShift)
		if err != nil {
			log.Fatal(err)
		}
		worldCfg.SlicePriors = priors
	} else if *peak >= 0 {
		log.Fatal("-peak requires -slices > 1")
	}
	world, err := traj.NewWorld(g, worldCfg)
	if err != nil {
		log.Fatal(err)
	}

	weights, err := parseWeights(*sliceWeights)
	if err != nil {
		log.Fatalf("-slice-weights: %v", err)
	}
	walkCfg := traj.WalkConfig{
		NumTrajectories: *n,
		MinEdges:        *minEdges,
		MaxEdges:        *maxEdges,
		Seed:            *walkSeed,
		Slices:          *slices,
		SliceWeights:    weights,
	}
	trs, err := traj.GenerateTrajectories(world, walkCfg)
	if err != nil {
		log.Fatal(err)
	}

	of, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := traj.WriteTrajectories(of, trs); err != nil {
		of.Close()
		log.Fatal(err)
	}
	if err := of.Close(); err != nil {
		log.Fatal(err)
	}
	edges := 0
	perSlice := make([]int, traj.NumSlices(*slices))
	for i := range trs {
		edges += len(trs[i].Edges)
		perSlice[trs[i].Slice(*slices)]++
	}
	fmt.Printf("wrote %s: %d trajectories, %d edge traversals (world: %.0f%% dependent pairs)\n",
		*out, len(trs), edges, 100*world.DependentPairFraction())
	if *slices > 1 {
		fmt.Printf("departures per slice: %v (peak slice %d)\n", perSlice, *peak)
	}
}

// Package exp is the experiment harness: it regenerates every table of
// the paper's empirical study on the engine stochroute.BuildEngine
// builds, so the tables measure the pipeline that serves; the E1–E8
// section banners in experiments.go and anytime.go are the experiment
// index.
package exp

import (
	"fmt"
	"io"

	"stochroute"
	"stochroute/internal/netgen"
)

// Scale selects how big the substrate is; experiments share the shapes
// across scales, only precision differs.
type Scale int

// Scales: Small is for unit/integration tests (seconds), Medium for the
// default experiment run (a few minutes), Large approaches a real
// city-scale study.
const (
	Small Scale = iota
	Medium
	Large
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Large:
		return "large"
	default:
		return fmt.Sprintf("scale(%d)", int(s))
	}
}

// ParseScale converts a string flag value.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "large":
		return Large, nil
	default:
		return Small, fmt.Errorf("exp: unknown scale %q (want small|medium|large)", s)
	}
}

// Setup is one experiment substrate: the engine BuildEngine built at a
// scale (network, world, observations, trained model and its report)
// and the query workload per distance category.
type Setup struct {
	Scale   Scale
	Engine  *stochroute.Engine
	Queries map[string][]netgen.Query
}

// engineConfig returns a scale's engine configuration, DefaultConfig
// with the scale's network, walk and training sizes, and its queries
// per distance category.
func engineConfig(scale Scale) (stochroute.Config, int) {
	cfg := stochroute.DefaultConfig()
	net, walk, hyb := &cfg.Network, &cfg.Walk, &cfg.Hybrid
	switch scale {
	case Small:
		net.Rows, net.Cols, net.CellMeters = 24, 24, 120
		net.DropFrac = 0.05
		walk.NumTrajectories = 4000
		hyb.TrainPairs, hyb.TestPairs = 600, 150
		hyb.MinPairObs = 12
		hyb.Estimator.Train.Epochs = 40
		hyb.Estimator.Train.Patience = 6
		return cfg, 6
	case Medium:
		net.Rows, net.Cols, net.CellMeters = 80, 80, 110
		// ~65k observable pairs need deep coverage for the paper's
		// 4000-train/1000-test protocol at >= 20 joint observations;
		// route trips average far more edges than walks.
		walk.NumTrajectories = 250000
		walk.RouteFraction = 0.6
		walk.NumRoutes = 4000
		hyb.TrainPairs, hyb.TestPairs = 4000, 1000
		hyb.PrefixRows = 20000
		return cfg, 12
	default:
		net.Rows, net.Cols, net.CellMeters = 140, 140, 100
		walk.NumTrajectories = 600000
		walk.RouteFraction = 0.6
		walk.NumRoutes = 8000
		walk.MaxEdges = 40
		hyb.TrainPairs, hyb.TestPairs = 4000, 1000
		hyb.PrefixRows = 24000
		return cfg, 20
	}
}

// Categories returns the query distance bands that actually fit on the
// generated network at the given scale; Small networks cannot host
// [5, 10) km queries.
func Categories(scale Scale) []netgen.DistanceCategory {
	switch scale {
	case Small:
		return []netgen.DistanceCategory{{LoKm: 0, HiKm: 1}, {LoKm: 1, HiKm: 2.5}}
	default:
		return netgen.PaperCategories()
	}
}

// Build builds the engine of a scale with stochroute.BuildEngine and
// draws its query workload: one generator, seeded 2024, across the
// scale's categories in order. Progress is logged to logW (pass
// io.Discard to silence).
func Build(scale Scale, logW io.Writer) (*Setup, error) {
	cfg, queriesPerCat := engineConfig(scale)
	fmt.Fprintf(logW, "exp: building the %s engine (%dx%d grid, %d trajectories)...\n",
		scale, cfg.Network.Rows, cfg.Network.Cols, cfg.Walk.NumTrajectories)
	eng, err := stochroute.BuildEngine(cfg, logW)
	if err != nil {
		return nil, fmt.Errorf("exp: %w", err)
	}
	wg := netgen.NewWorkloadGen(eng.Graph(), 2024)
	queries := make(map[string][]netgen.Query)
	for _, cat := range Categories(scale) {
		qs, err := wg.SampleCategory(cat, queriesPerCat)
		if err != nil {
			return nil, fmt.Errorf("exp: workload for %s: %w", cat, err)
		}
		queries[cat.String()] = qs
	}
	return &Setup{Scale: scale, Engine: eng, Queries: queries}, nil
}

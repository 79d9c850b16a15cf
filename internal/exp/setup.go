// Package exp is the experiment harness: it regenerates every table of
// the paper's empirical study on top of the synthetic substrate; the
// E1–E8 section banners in experiments.go and anytime.go are the
// experiment index.
package exp

import (
	"fmt"
	"io"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
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

// Setup bundles one fully built experiment substrate: network, traffic
// world, observations, knowledge base, trained hybrid model, and the
// model-quality report from training.
type Setup struct {
	Scale   Scale
	Graph   *graph.Graph
	World   *traj.World
	Obs     *traj.ObservationStore
	KB      *hybrid.KnowledgeBase
	Model   *hybrid.Model
	Report  *hybrid.EvalReport
	Queries map[string][]netgen.Query
}

// Params returns the generation parameters for a scale.
func Params(scale Scale) (netgen.Config, traj.WorldConfig, traj.WalkConfig, hybrid.Config, int) {
	net := netgen.DefaultConfig()
	world := traj.DefaultWorldConfig()
	world.BucketWidth = 2
	// The experiment world is noise-free: travel times take exactly the
	// latent mode values, as in the paper's worked example. (±1-bucket
	// observation noise is supported and unit-tested, but it blurs the
	// mode gaps on short edges and weakens every dependence detector —
	// ours and the paper's alike.)
	world.NoiseProb = 0
	walk := traj.DefaultWalkConfig()
	hyb := hybrid.DefaultConfig()
	hyb.Width = world.BucketWidth
	queriesPerCat := 20

	switch scale {
	case Small:
		net.Rows, net.Cols, net.CellMeters = 24, 24, 120
		net.DropFrac = 0.05
		walk.NumTrajectories = 4000
		hyb.TrainPairs, hyb.TestPairs = 600, 150
		hyb.MinPairObs = 12
		hyb.Estimator.Train.Epochs = 40
		hyb.Estimator.Train.Patience = 6
		queriesPerCat = 6
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
		queriesPerCat = 12
	case Large:
		net.Rows, net.Cols, net.CellMeters = 140, 140, 100
		walk.NumTrajectories = 600000
		walk.RouteFraction = 0.6
		walk.NumRoutes = 8000
		walk.MaxEdges = 40
		hyb.TrainPairs, hyb.TestPairs = 4000, 1000
		hyb.PrefixRows = 24000
		queriesPerCat = 20
	}
	return net, world, walk, hyb, queriesPerCat
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

// WorldOracle adapts the traffic world model to the hybrid.Oracle
// interface: analytic ground-truth pair distributions and dependence
// labels.
type WorldOracle struct {
	World *traj.World
}

// PairTruth implements hybrid.Oracle.
func (o *WorldOracle) PairTruth(k traj.PairKey) (*hist.Hist, error) {
	g := o.World.Graph()
	via := g.Edge(k.Second).From
	return o.World.PairJointSum(k.First, k.Second, via), nil
}

// PairDependent implements hybrid.Oracle.
func (o *WorldOracle) PairDependent(k traj.PairKey) bool {
	g := o.World.Graph()
	return o.World.PairIsDependent(g.Edge(k.Second).From)
}

// Build constructs the full substrate at the given scale. Progress is
// logged to w (pass io.Discard to silence).
func Build(scale Scale, logW io.Writer) (*Setup, error) {
	logf := func(format string, args ...any) {
		fmt.Fprintf(logW, format+"\n", args...)
	}
	netCfg, worldCfg, walkCfg, hybCfg, queriesPerCat := Params(scale)

	logf("exp: generating %s network (%dx%d grid)...", scale, netCfg.Rows, netCfg.Cols)
	g, err := netgen.Generate(netCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: network generation: %w", err)
	}
	logf("exp: network has %d vertices, %d edges, %.1f km diagonal",
		g.NumVertices(), g.NumEdges(), g.BBox().DiagonalMeters()/1000)

	world, err := traj.NewWorld(g, worldCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: world model: %w", err)
	}
	logf("exp: world has %.1f%% dependent edge pairs (target %.0f%%)",
		100*world.DependentPairFraction(), 100*worldCfg.DependentVertexProb)

	logf("exp: simulating %d trajectories...", walkCfg.NumTrajectories)
	trajs, err := traj.GenerateTrajectories(world, walkCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: trajectory generation: %w", err)
	}
	obs := traj.NewObservationStore(g, worldCfg.BucketWidth)
	obs.Collect(trajs)
	logf("exp: %d edge observations over %d edges, %d pairs observed",
		obs.NumEdgeObservations(), len(obs.Edge), len(obs.Pairs))

	kb, err := hybrid.BuildKnowledgeBase(g, obs, hybCfg.Width, hybCfg.MinPairObs)
	if err != nil {
		return nil, fmt.Errorf("exp: knowledge base: %w", err)
	}
	logf("exp: knowledge base has %d pairs with >= %d observations", kb.NumPairs(), hybCfg.MinPairObs)

	logf("exp: training hybrid model (%d/%d protocol)...", hybCfg.TrainPairs, hybCfg.TestPairs)
	oracle := &WorldOracle{World: world}
	model, report, err := hybrid.Train(kb, obs, trajs, oracle, hybCfg)
	if err != nil {
		return nil, fmt.Errorf("exp: hybrid training: %w", err)
	}
	logf("exp: KL(hybrid)=%.4f KL(conv)=%.4f over %d test pairs",
		report.MeanKLHybrid, report.MeanKLConv, report.TestPairs)

	wg := netgen.NewWorkloadGen(g, 2024)
	queries := make(map[string][]netgen.Query)
	for _, cat := range Categories(scale) {
		qs, err := wg.SampleCategory(cat, queriesPerCat)
		if err != nil {
			return nil, fmt.Errorf("exp: workload for %s: %w", cat, err)
		}
		queries[cat.String()] = qs
	}

	return &Setup{
		Scale:   scale,
		Graph:   g,
		World:   world,
		Obs:     obs,
		KB:      kb,
		Model:   model,
		Report:  report,
		Queries: queries,
	}, nil
}

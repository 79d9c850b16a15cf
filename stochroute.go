package stochroute

import (
	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases are the supported public surface.
type (
	// Graph is an immutable CSR-encoded road network.
	Graph = graph.Graph
	// VertexID identifies a vertex of a Graph.
	VertexID = graph.VertexID
	// EdgeID identifies a directed edge of a Graph.
	EdgeID = graph.EdgeID
	// Edge carries road-segment metadata.
	Edge = graph.Edge
	// RoadCategory classifies an edge by road class.
	RoadCategory = graph.RoadCategory
	// Point is a WGS84 coordinate.
	Point = geo.Point
	// Hist is a travel-time distribution over a uniform grid.
	Hist = hist.Hist
	// Query is a sampled routing request.
	Query = netgen.Query
	// RouteResult is the outcome of a budget-routing query.
	RouteResult = routing.Result
	// RouteOptions configures a budget-routing query.
	RouteOptions = routing.Options
	// BatchQuery is one query of an Engine.RouteBatch request.
	BatchQuery = routing.BatchQuery
	// BatchItem is one per-query outcome of an Engine.RouteBatch answer.
	BatchItem = routing.BatchItem
	// PotentialSource supplies precomputed admissible potentials to the
	// search (RouteOptions.Potentials); Engine.SetLandmarks wires the
	// built-in ALT implementation up automatically.
	PotentialSource = routing.PotentialSource
	// PotentialFunc is a per-query admissible potential function.
	PotentialFunc = routing.PotentialFunc
	// Trajectory is a simulated vehicle trip.
	Trajectory = traj.Trajectory
	// ObservationStore is the trajectory-derived training data.
	ObservationStore = traj.ObservationStore
	// Model is the trained Hybrid Model (estimation + classifier).
	Model = hybrid.Model
	// ModelSet is the time-sliced cost model: one Model per
	// time-of-day slice behind a single façade.
	ModelSet = hybrid.ModelSet
	// KnowledgeBase holds per-edge and per-pair statistics.
	KnowledgeBase = hybrid.KnowledgeBase
	// EvalReport records the KL-divergence model evaluation.
	EvalReport = hybrid.EvalReport
	// World is the synthetic traffic ground truth.
	World = traj.World
)

// Sentinel IDs re-exported for convenience.
const (
	NoVertex = graph.NoVertex
	NoEdge   = graph.NoEdge
)

// ErrUnreachable is returned when no path connects the query endpoints.
var ErrUnreachable = routing.ErrUnreachable

// NewHist builds a travel-time distribution on the grid
// min, min+width, … with the given (unnormalised) mass vector.
func NewHist(min, width float64, p []float64) *Hist { return hist.New(min, width, p) }

// NewHistFromPairs builds a normalised distribution from explicit
// (value, weight) pairs on a common grid, like the tables in the paper.
// Bad input — a width, value or weight that is not finite, a negative
// weight, a support wider than 1<<20 buckets — is an error, never a
// panic.
func NewHistFromPairs(pairs map[float64]float64, width float64) (*Hist, error) {
	return hist.FromPairs(pairs, width)
}

// Convolve returns the distribution of X+Y under independence — the
// classical path-cost combination the paper improves on.
func Convolve(a, b *Hist) (*Hist, error) { return hist.Convolve(a, b) }

// KLDivergence returns D(p‖q) in nats with smoothing eps, the paper's
// model-quality metric.
func KLDivergence(p, q *Hist, eps float64) (float64, error) { return hist.KL(p, q, eps) }

// Config bundles the generation, simulation and training parameters of
// an Engine built from scratch.
type Config struct {
	Network netgen.Config
	World   traj.WorldConfig
	Walk    traj.WalkConfig
	Hybrid  hybrid.Config
}

// DefaultConfig returns a mid-sized city with the paper's training
// protocol.
func DefaultConfig() Config {
	world := traj.DefaultWorldConfig()
	// Noise-free: travel times take exactly the latent mode values, as
	// in the paper's worked example. ±1-bucket observation noise blurs
	// the mode gaps on short edges and weakens every dependence
	// detector, the paper's included.
	world.NoiseProb = 0
	hyb := hybrid.DefaultConfig()
	hyb.Width = world.BucketWidth
	return Config{
		Network: netgen.DefaultConfig(),
		World:   world,
		Walk:    traj.DefaultWalkConfig(),
		Hybrid:  hyb,
	}
}

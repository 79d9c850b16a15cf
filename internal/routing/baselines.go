package routing

import (
	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
)

// MeanCostPath is the classical baseline the paper's motivating example
// warns about: Dijkstra over mean edge travel times. The returned path
// minimises expected travel time but may be risky near a deadline.
func MeanCostPath(g *graph.Graph, kb *hybrid.KnowledgeBase, source, dest graph.VertexID) ([]graph.EdgeID, float64, error) {
	return Dijkstra(g, func(e graph.EdgeID) float64 {
		return kb.Edge(e).Mean
	}, source, dest)
}

// Package graph implements the road-network substrate: a directed graph
// with geographic vertices and travel-metadata edges, stored in CSR
// (compressed sparse row) form for cache-friendly traversal, with a
// reverse index for backward searches, edge-pair enumeration for the
// hybrid model, and a spatial grid index for nearest-vertex lookup.
package graph

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/geo"
)

// VertexID identifies a vertex; valid IDs are [0, NumVertices).
type VertexID int32

// EdgeID identifies a directed edge; valid IDs are [0, NumEdges).
type EdgeID int32

// NoVertex and NoEdge are sentinel invalid IDs.
const (
	NoVertex VertexID = -1
	NoEdge   EdgeID   = -1
)

// RoadCategory classifies an edge by road class, mirroring the OSM
// highway hierarchy the paper's Danish network uses.
type RoadCategory uint8

// Road categories from fastest to slowest.
const (
	Motorway RoadCategory = iota
	Trunk
	Primary
	Secondary
	Tertiary
	Residential
	Service
	numCategories
)

// NumRoadCategories is the number of distinct road categories.
const NumRoadCategories = int(numCategories)

// String implements fmt.Stringer.
func (c RoadCategory) String() string {
	switch c {
	case Motorway:
		return "motorway"
	case Trunk:
		return "trunk"
	case Primary:
		return "primary"
	case Secondary:
		return "secondary"
	case Tertiary:
		return "tertiary"
	case Residential:
		return "residential"
	case Service:
		return "service"
	default:
		return fmt.Sprintf("category(%d)", uint8(c))
	}
}

// DefaultSpeedKmh returns the free-flow speed conventionally assumed for
// the category, in km/h.
func (c RoadCategory) DefaultSpeedKmh() float64 {
	switch c {
	case Motorway:
		return 110
	case Trunk:
		return 90
	case Primary:
		return 80
	case Secondary:
		return 60
	case Tertiary:
		return 50
	case Residential:
		return 30
	case Service:
		return 15
	default:
		return 40
	}
}

// Edge is a directed road segment.
type Edge struct {
	From         VertexID
	To           VertexID
	LengthMeters float64
	Category     RoadCategory
	SpeedKmh     float64 // free-flow speed; 0 means use category default
}

// FreeFlowSeconds returns the minimum travel time of the edge at its
// free-flow speed.
func (e Edge) FreeFlowSeconds() float64 {
	speed := e.SpeedKmh
	if speed <= 0 {
		speed = e.Category.DefaultSpeedKmh()
	}
	return e.LengthMeters / (speed / 3.6)
}

// Graph is an immutable CSR-encoded directed road network. Construct one
// with a Builder; the zero value is an empty graph.
type Graph struct {
	points []geo.Point

	edges []Edge

	// Forward CSR: outStart[v]..outStart[v+1] indexes outEdges, which
	// holds edge IDs ordered by source vertex.
	outStart []int32
	outEdges []EdgeID

	// Reverse CSR for backward traversal.
	inStart []int32
	inEdges []EdgeID
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return len(g.points) }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Point returns the location of vertex v.
func (g *Graph) Point(v VertexID) geo.Point { return g.points[v] }

// Edge returns the metadata of edge e.
func (g *Graph) Edge(e EdgeID) Edge { return g.edges[e] }

// Out returns the IDs of edges leaving v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Out(v VertexID) []EdgeID {
	return g.outEdges[g.outStart[v]:g.outStart[v+1]]
}

// In returns the IDs of edges entering v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) In(v VertexID) []EdgeID {
	return g.inEdges[g.inStart[v]:g.inStart[v+1]]
}

// OutDegree returns the number of edges leaving v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.outStart[v+1] - g.outStart[v])
}

// InDegree returns the number of edges entering v.
func (g *Graph) InDegree(v VertexID) int {
	return int(g.inStart[v+1] - g.inStart[v])
}

// BBox returns the bounding box of all vertices.
func (g *Graph) BBox() geo.BBox {
	b := geo.EmptyBBox()
	for _, p := range g.points {
		b = b.Extend(p)
	}
	return b
}

// TotalLengthMeters returns the summed length of all edges.
func (g *Graph) TotalLengthMeters() float64 {
	total := 0.0
	for _, e := range g.edges {
		total += e.LengthMeters
	}
	return total
}

// EdgePair is an ordered pair of adjacent edges (e1 → e2) meeting at the
// vertex Via = e1.To = e2.From. Edge pairs are the training/testing unit
// of the paper's hybrid model.
type EdgePair struct {
	First  EdgeID
	Second EdgeID
	Via    VertexID
}

// EdgePairs returns every ordered pair of adjacent edges in the graph,
// excluding immediate U-turns (e2 returning to e1.From) when skipUTurns
// is set, as the paper's trajectories never contain them.
func (g *Graph) EdgePairs(skipUTurns bool) []EdgePair {
	var pairs []EdgePair
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for _, e1 := range g.In(v) {
			from := g.edges[e1].From
			for _, e2 := range g.Out(v) {
				if skipUTurns && g.edges[e2].To == from {
					continue
				}
				pairs = append(pairs, EdgePair{First: e1, Second: e2, Via: v})
			}
		}
	}
	return pairs
}

// Builder accumulates vertices and edges and produces an immutable Graph.
type Builder struct {
	points []geo.Point
	edges  []Edge
}

// NewBuilder returns a Builder with capacity hints.
func NewBuilder(vertexHint, edgeHint int) *Builder {
	return &Builder{
		points: make([]geo.Point, 0, vertexHint),
		edges:  make([]Edge, 0, edgeHint),
	}
}

// AddVertex appends a vertex and returns its ID.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.points = append(b.points, p)
	return VertexID(len(b.points) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.points) }

// AddEdge appends a directed edge and returns its ID. Length 0 is
// replaced by the haversine distance between the endpoints.
func (b *Builder) AddEdge(e Edge) (EdgeID, error) {
	if int(e.From) < 0 || int(e.From) >= len(b.points) {
		return NoEdge, fmt.Errorf("graph: AddEdge with invalid From %d", e.From)
	}
	if int(e.To) < 0 || int(e.To) >= len(b.points) {
		return NoEdge, fmt.Errorf("graph: AddEdge with invalid To %d", e.To)
	}
	if e.From == e.To {
		return NoEdge, errors.New("graph: AddEdge self-loop")
	}
	if e.LengthMeters <= 0 {
		e.LengthMeters = geo.Haversine(b.points[e.From], b.points[e.To])
		if e.LengthMeters <= 0 {
			e.LengthMeters = 1
		}
	}
	if math.IsNaN(e.LengthMeters) || math.IsInf(e.LengthMeters, 0) {
		return NoEdge, fmt.Errorf("graph: AddEdge with invalid length %v", e.LengthMeters)
	}
	b.edges = append(b.edges, e)
	return EdgeID(len(b.edges) - 1), nil
}

// AddBidirectional adds the edge and its reverse, returning both IDs.
func (b *Builder) AddBidirectional(e Edge) (fwd, rev EdgeID, err error) {
	fwd, err = b.AddEdge(e)
	if err != nil {
		return NoEdge, NoEdge, err
	}
	back := e
	back.From, back.To = e.To, e.From
	rev, err = b.AddEdge(back)
	if err != nil {
		return NoEdge, NoEdge, err
	}
	return fwd, rev, nil
}

// Build freezes the builder into a Graph. The builder may be reused
// afterwards but additions no longer affect the built graph.
func (b *Builder) Build() *Graph {
	g := &Graph{
		points: append([]geo.Point(nil), b.points...),
		edges:  append([]Edge(nil), b.edges...),
	}
	n := len(g.points)
	g.outStart = make([]int32, n+1)
	g.inStart = make([]int32, n+1)
	for _, e := range g.edges {
		g.outStart[e.From+1]++
		g.inStart[e.To+1]++
	}
	for i := 0; i < n; i++ {
		g.outStart[i+1] += g.outStart[i]
		g.inStart[i+1] += g.inStart[i]
	}
	g.outEdges = make([]EdgeID, len(g.edges))
	g.inEdges = make([]EdgeID, len(g.edges))
	outPos := append([]int32(nil), g.outStart[:n]...)
	inPos := append([]int32(nil), g.inStart[:n]...)
	for id, e := range g.edges {
		g.outEdges[outPos[e.From]] = EdgeID(id)
		outPos[e.From]++
		g.inEdges[inPos[e.To]] = EdgeID(id)
		inPos[e.To]++
	}
	return g
}

// LargestStronglyReachableFrom returns the set of vertices v such that
// start can reach v and v can reach start (the strongly connected
// component containing start), as a boolean mask.
func (g *Graph) LargestStronglyReachableFrom(start VertexID) []bool {
	fwd := make([]bool, g.NumVertices())
	bwd := make([]bool, g.NumVertices())
	var stack []VertexID
	stack = append(stack, start)
	fwd[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Out(v) {
			to := g.edges[e].To
			if !fwd[to] {
				fwd[to] = true
				stack = append(stack, to)
			}
		}
	}
	stack = append(stack[:0], start)
	bwd[start] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.In(v) {
			from := g.edges[e].From
			if !bwd[from] {
				bwd[from] = true
				stack = append(stack, from)
			}
		}
	}
	out := make([]bool, g.NumVertices())
	for i := range out {
		out[i] = fwd[i] && bwd[i]
	}
	return out
}

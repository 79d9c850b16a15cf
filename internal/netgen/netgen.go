// Package netgen generates synthetic road networks that stand in for the
// paper's Danish OpenStreetMap extract (667,950 vertices / 1,647,724
// edges), plus the query workloads of the empirical study.
//
// The generator produces a hierarchical network with the structural
// properties that drive routing behaviour: a dense residential mesh,
// faster arterials every few blocks, primary roads every few arterials,
// and an optional motorway ring around the perimeter. Vertex positions
// are jittered and a fraction of residential edges is dropped so the
// graph is irregular, then the largest strongly connected component is
// kept so every generated query is feasible.
package netgen

import (
	"errors"
	"fmt"
	"math"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/rng"
)

// Config parameterises network generation. The zero value is invalid;
// start from DefaultConfig.
type Config struct {
	Rows       int     // grid rows (intersections)
	Cols       int     // grid columns
	CellMeters float64 // spacing between adjacent intersections

	ArterialEvery int     // every k-th row/column is a Secondary arterial (0 = none)
	MotorwayRing  bool    // add a Motorway ring around the perimeter
	DropFrac      float64 // fraction of residential edges removed for irregularity

	Seed uint64

	primaryEvery int // every k-th arterial is upgraded to Primary (0 = none)
}

const jitterFrac = 0.2 // vertex position jitter as a fraction of CellMeters

var origin = geo.Point{Lat: 57.0, Lon: 9.9} // southwest corner of the grid

// urbanSpeeds are the signed speeds per category (km/h): realistic
// *effective* urban speeds. Urban networks have much flatter effective
// speeds than the legal hierarchy suggests; road classes differ mostly
// in reliability, and that contrast — not raw speed — is what drives
// stochastic routing.
var urbanSpeeds = map[graph.RoadCategory]float64{
	graph.Motorway:    90,
	graph.Trunk:       70,
	graph.Primary:     58,
	graph.Secondary:   52,
	graph.Tertiary:    48,
	graph.Residential: 45,
	graph.Service:     25,
}

// DefaultConfig returns a mid-sized city: ~10k vertices, ~38k directed
// edges, ~7km × 7km, centred near Aalborg (the paper's research group).
func DefaultConfig() Config {
	return Config{
		Rows:          100,
		Cols:          100,
		CellMeters:    70,
		ArterialEvery: 5,
		MotorwayRing:  true,
		DropFrac:      0.08,
		Seed:          42,
		primaryEvery:  4,
	}
}

// Validate reports whether the config is usable.
func (c Config) Validate() error {
	if c.Rows < 2 || c.Cols < 2 {
		return fmt.Errorf("netgen: grid must be at least 2x2, got %dx%d", c.Rows, c.Cols)
	}
	if c.CellMeters <= 0 {
		return fmt.Errorf("netgen: CellMeters must be positive, got %v", c.CellMeters)
	}
	if c.DropFrac < 0 || c.DropFrac > 0.5 {
		return fmt.Errorf("netgen: DropFrac must be in [0, 0.5], got %v", c.DropFrac)
	}
	return nil
}

// Generate builds a network from the config. The result is strongly
// connected (the largest strongly connected component of the raw grid).
func Generate(cfg Config) (*graph.Graph, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rng.New(cfg.Seed)
	posRng := r.Split("positions")
	dropRng := r.Split("drops")

	metersPerDegLat := 111132.0
	metersPerDegLon := 111320.0 * math.Cos(origin.Lat*math.Pi/180)

	b := graph.NewBuilder(cfg.Rows*cfg.Cols, cfg.Rows*cfg.Cols*4)
	ids := make([]graph.VertexID, cfg.Rows*cfg.Cols)
	for row := 0; row < cfg.Rows; row++ {
		for col := 0; col < cfg.Cols; col++ {
			jLat := posRng.Range(-jitterFrac, jitterFrac) * cfg.CellMeters
			jLon := posRng.Range(-jitterFrac, jitterFrac) * cfg.CellMeters
			p := geo.Point{
				Lat: origin.Lat + (float64(row)*cfg.CellMeters+jLat)/metersPerDegLat,
				Lon: origin.Lon + (float64(col)*cfg.CellMeters+jLon)/metersPerDegLon,
			}
			ids[row*cfg.Cols+col] = b.AddVertex(p)
		}
	}

	onRing := func(row, col int) bool {
		return cfg.MotorwayRing &&
			(row == 0 || row == cfg.Rows-1 || col == 0 || col == cfg.Cols-1)
	}
	lineCategory := func(index int) graph.RoadCategory {
		if cfg.ArterialEvery > 0 && index%cfg.ArterialEvery == 0 {
			if cfg.primaryEvery > 0 && (index/cfg.ArterialEvery)%cfg.primaryEvery == 0 {
				return graph.Primary
			}
			return graph.Secondary
		}
		return graph.Residential
	}

	addBoth := func(a, c graph.VertexID, cat graph.RoadCategory) error {
		_, _, err := b.AddBidirectional(graph.Edge{
			From: a, To: c, Category: cat, SpeedKmh: urbanSpeeds[cat],
		})
		return err
	}

	// Horizontal edges: the category of row r follows lineCategory(r).
	for row := 0; row < cfg.Rows; row++ {
		for col := 0; col+1 < cfg.Cols; col++ {
			cat := lineCategory(row)
			if onRing(row, col) && onRing(row, col+1) && (row == 0 || row == cfg.Rows-1) {
				cat = graph.Motorway
			}
			if cat == graph.Residential && dropRng.Bool(cfg.DropFrac) {
				continue
			}
			if err := addBoth(ids[row*cfg.Cols+col], ids[row*cfg.Cols+col+1], cat); err != nil {
				return nil, err
			}
		}
	}
	// Vertical edges: the category of column c follows lineCategory(c).
	for col := 0; col < cfg.Cols; col++ {
		for row := 0; row+1 < cfg.Rows; row++ {
			cat := lineCategory(col)
			if onRing(row, col) && onRing(row+1, col) && (col == 0 || col == cfg.Cols-1) {
				cat = graph.Motorway
			}
			if cat == graph.Residential && dropRng.Bool(cfg.DropFrac) {
				continue
			}
			if err := addBoth(ids[row*cfg.Cols+col], ids[(row+1)*cfg.Cols+col], cat); err != nil {
				return nil, err
			}
		}
	}

	raw := b.Build()
	return largestSCCSubgraph(raw)
}

// largestSCCSubgraph keeps only the strongly connected component of the
// central vertex (falling back to scanning a few probes for the largest),
// remapping vertex IDs densely.
func largestSCCSubgraph(g *graph.Graph) (*graph.Graph, error) {
	if g.NumVertices() == 0 {
		return nil, errors.New("netgen: generated empty graph")
	}
	bestMask := []bool(nil)
	bestSize := -1
	probes := []graph.VertexID{
		graph.VertexID(g.NumVertices() / 2),
		0,
		graph.VertexID(g.NumVertices() - 1),
	}
	for _, probe := range probes {
		mask := g.LargestStronglyReachableFrom(probe)
		size := 0
		for _, in := range mask {
			if in {
				size++
			}
		}
		if size > bestSize {
			bestSize, bestMask = size, mask
		}
	}
	if bestSize == g.NumVertices() {
		return g, nil
	}
	remap := make([]graph.VertexID, g.NumVertices())
	nb := graph.NewBuilder(bestSize, g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		if bestMask[v] {
			remap[v] = nb.AddVertex(g.Point(graph.VertexID(v)))
		} else {
			remap[v] = graph.NoVertex
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(graph.EdgeID(e))
		if bestMask[ed.From] && bestMask[ed.To] {
			ed.From = remap[ed.From]
			ed.To = remap[ed.To]
			if _, err := nb.AddEdge(ed); err != nil {
				return nil, err
			}
		}
	}
	out := nb.Build()
	if out.NumVertices() < 2 {
		return nil, errors.New("netgen: largest SCC degenerate; lower DropFrac")
	}
	return out, nil
}

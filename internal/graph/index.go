package graph

import (
	"math"

	"stochroute/internal/geo"
)

// GridIndex is a uniform spatial grid over the graph's vertices for
// nearest-vertex and radius queries. Cells are sized in degrees derived
// from a target cell edge in meters at the graph's central latitude.
type GridIndex struct {
	g       *Graph
	bbox    geo.BBox
	cellLat float64
	cellLon float64
	rows    int
	cols    int
	cellIdx []int32 // CSR start offsets, rows*cols+1
	cellVtx []VertexID
}

// NewGridIndex builds an index with roughly cellMeters-sized cells.
func NewGridIndex(g *Graph, cellMeters float64) *GridIndex {
	if cellMeters <= 0 {
		cellMeters = 500
	}
	idx := &GridIndex{g: g, bbox: g.BBox()}
	if g.NumVertices() == 0 {
		idx.rows, idx.cols = 1, 1
		idx.cellIdx = make([]int32, 2)
		return idx
	}
	centerLat := idx.bbox.Center().Lat
	metersPerDegLat := 111132.0
	metersPerDegLon := 111320.0 * math.Cos(centerLat*math.Pi/180)
	if metersPerDegLon < 1 {
		metersPerDegLon = 1
	}
	idx.cellLat = cellMeters / metersPerDegLat
	idx.cellLon = cellMeters / metersPerDegLon
	idx.rows = int((idx.bbox.MaxLat-idx.bbox.MinLat)/idx.cellLat) + 1
	idx.cols = int((idx.bbox.MaxLon-idx.bbox.MinLon)/idx.cellLon) + 1
	if idx.rows < 1 {
		idx.rows = 1
	}
	if idx.cols < 1 {
		idx.cols = 1
	}
	nc := idx.rows * idx.cols
	counts := make([]int32, nc+1)
	cellOf := make([]int32, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		c := idx.cellFor(g.Point(VertexID(v)))
		cellOf[v] = int32(c)
		counts[c+1]++
	}
	for i := 0; i < nc; i++ {
		counts[i+1] += counts[i]
	}
	idx.cellIdx = counts
	idx.cellVtx = make([]VertexID, g.NumVertices())
	pos := append([]int32(nil), counts[:nc]...)
	for v := 0; v < g.NumVertices(); v++ {
		c := cellOf[v]
		idx.cellVtx[pos[c]] = VertexID(v)
		pos[c]++
	}
	return idx
}

func (idx *GridIndex) cellFor(p geo.Point) int {
	r := int((p.Lat - idx.bbox.MinLat) / idx.cellLat)
	c := int((p.Lon - idx.bbox.MinLon) / idx.cellLon)
	if r < 0 {
		r = 0
	}
	if r >= idx.rows {
		r = idx.rows - 1
	}
	if c < 0 {
		c = 0
	}
	if c >= idx.cols {
		c = idx.cols - 1
	}
	return r*idx.cols + c
}

// Nearest returns the vertex closest to p, or NoVertex for an empty
// graph. It spirals outward over grid rings until a candidate ring is
// provably farther than the best hit.
func (idx *GridIndex) Nearest(p geo.Point) VertexID {
	if idx.g.NumVertices() == 0 {
		return NoVertex
	}
	center := idx.cellFor(p)
	cr, cc := center/idx.cols, center%idx.cols
	best := NoVertex
	bestDist := math.Inf(1)
	maxRing := idx.rows
	if idx.cols > maxRing {
		maxRing = idx.cols
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once we have a hit, stop when the ring's minimum possible
		// distance exceeds it.
		if best != NoVertex {
			minCell := math.Min(idx.cellLat*111132.0, idx.cellLon*111320.0)
			if float64(ring-1)*minCell > bestDist {
				break
			}
		}
		found := false
		for r := cr - ring; r <= cr+ring; r++ {
			if r < 0 || r >= idx.rows {
				continue
			}
			for c := cc - ring; c <= cc+ring; c++ {
				if c < 0 || c >= idx.cols {
					continue
				}
				// Only the ring border (interior already scanned).
				if ring > 0 && r != cr-ring && r != cr+ring && c != cc-ring && c != cc+ring {
					continue
				}
				found = true
				cell := r*idx.cols + c
				for _, v := range idx.cellVtx[idx.cellIdx[cell]:idx.cellIdx[cell+1]] {
					d := geo.ApproxDistance(p, idx.g.Point(v))
					if d < bestDist {
						bestDist = d
						best = v
					}
				}
			}
		}
		if !found && best != NoVertex {
			break
		}
	}
	return best
}

// CellRepresentatives returns one vertex per non-empty grid cell (the
// lowest-numbered vertex in each cell, so the result is deterministic).
// It gives landmark selection and similar sampling passes a spatially
// uniform candidate set whose size tracks the network's area rather than
// its vertex count.
func (idx *GridIndex) CellRepresentatives() []VertexID {
	out := make([]VertexID, 0, len(idx.cellIdx)-1)
	for c := 0; c+1 < len(idx.cellIdx); c++ {
		if idx.cellIdx[c] < idx.cellIdx[c+1] {
			out = append(out, idx.cellVtx[idx.cellIdx[c]])
		}
	}
	return out
}

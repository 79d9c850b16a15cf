package graph

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"stochroute/internal/geo"
)

// Binary graph file format ("SRG1"): a compact little-endian layout so
// generated networks can be saved by cmd/gennet and reloaded by every
// other tool without re-generation.
//
//	magic   [4]byte "SRG1"
//	nv      uint32
//	ne      uint32
//	points  nv × (lat float64, lon float64)
//	edges   ne × (from uint32, to uint32, len float64, cat uint8, speed float64)
var graphMagic = [4]byte{'S', 'R', 'G', '1'}

// edgeRecord is an edge as the file lays it out; encoding/binary packs
// its fields without padding.
type edgeRecord struct {
	From, To uint32
	Length   float64
	Cat      uint8
	Speed    float64
}

// WriteTo serialises the graph.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	edges := make([]edgeRecord, len(g.edges))
	for i, e := range g.edges {
		edges[i] = edgeRecord{uint32(e.From), uint32(e.To), e.LengthMeters, uint8(e.Category), e.SpeedKmh}
	}
	bw := bufio.NewWriter(w)
	var n int64
	for _, v := range []any{graphMagic, uint32(len(g.points)), uint32(len(edges)), g.points, edges} {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return n, err
		}
		n += int64(binary.Size(v))
	}
	return n, bw.Flush()
}

// Read deserialises a graph written by WriteTo.
func Read(r io.Reader) (*Graph, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("graph: read magic: %w", err)
	}
	if magic != graphMagic {
		return nil, errors.New("graph: bad magic (not an SRG1 file)")
	}
	var counts [2]uint32 // nv, ne
	if err := binary.Read(br, binary.LittleEndian, &counts); err != nil {
		return nil, fmt.Errorf("graph: read counts: %w", err)
	}
	nv, ne := counts[0], counts[1]
	const maxCount = 1 << 28
	if nv > maxCount || ne > maxCount {
		return nil, fmt.Errorf("graph: implausible counts nv=%d ne=%d", nv, ne)
	}
	// The counts are only claims: reserve nothing for them, and grow as
	// the bytes behind them arrive.
	b := NewBuilder(0, 0)
	for i := uint32(0); i < nv; i++ {
		var p geo.Point
		if err := binary.Read(br, binary.LittleEndian, &p); err != nil {
			return nil, fmt.Errorf("graph: read vertex %d: %w", i, err)
		}
		if math.IsNaN(p.Lat) || math.IsNaN(p.Lon) {
			return nil, fmt.Errorf("graph: vertex %d has NaN coordinates", i)
		}
		b.AddVertex(p)
	}
	for i := uint32(0); i < ne; i++ {
		var e edgeRecord
		if err := binary.Read(br, binary.LittleEndian, &e); err != nil {
			return nil, fmt.Errorf("graph: read edge %d: %w", i, err)
		}
		if _, err := b.AddEdge(Edge{
			From:         VertexID(e.From),
			To:           VertexID(e.To),
			LengthMeters: e.Length,
			Category:     RoadCategory(e.Cat),
			SpeedKmh:     e.Speed,
		}); err != nil {
			return nil, fmt.Errorf("graph: edge %d: %w", i, err)
		}
	}
	return b.Build(), nil
}

// Package osm parses OpenStreetMap XML extracts into road graphs. The
// paper's evaluation uses the Danish OSM network; this parser keeps the
// real-data ingestion path alive even though the test suite and benches
// run on synthetic networks.
//
// Only the subset of OSM needed for routing is understood: <node>
// elements with id/lat/lon, and <way> elements whose highway tag maps to
// a drivable road class. Ways are split into one directed edge per
// consecutive node pair; bidirectional unless oneway=yes/-1.
package osm

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
)

// highwayCategory maps OSM highway tag values to road categories.
// Values not present are not drivable and their ways are skipped.
var highwayCategory = map[string]graph.RoadCategory{
	"motorway":       graph.Motorway,
	"motorway_link":  graph.Motorway,
	"trunk":          graph.Trunk,
	"trunk_link":     graph.Trunk,
	"primary":        graph.Primary,
	"primary_link":   graph.Primary,
	"secondary":      graph.Secondary,
	"secondary_link": graph.Secondary,
	"tertiary":       graph.Tertiary,
	"tertiary_link":  graph.Tertiary,
	"unclassified":   graph.Residential,
	"residential":    graph.Residential,
	"living_street":  graph.Residential,
	"service":        graph.Service,
}

// Stats summarises a parse.
type Stats struct {
	NodesSeen    int
	WaysSeen     int
	WaysKept     int
	EdgesCreated int
}

type rawNode struct {
	lat, lon float64
}

type rawWay struct {
	refs    []int64
	cat     graph.RoadCategory
	oneway  int8 // 0 both, 1 forward, -1 backward
	speedKm float64
}

// Parse reads an OSM XML document and returns the drivable road graph.
func Parse(r io.Reader) (*graph.Graph, Stats, error) {
	var stats Stats
	nodes := make(map[int64]rawNode)
	var ways []rawWay

	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, stats, fmt.Errorf("osm: xml error: %w", err)
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		switch start.Name.Local {
		case "node":
			id, nd, err := parseNode(start)
			if err != nil {
				return nil, stats, err
			}
			nodes[id] = nd
			stats.NodesSeen++
			dec.Skip() //nolint:errcheck // sub-elements of nodes are irrelevant
		case "way":
			stats.WaysSeen++
			w, keep, err := parseWay(dec, start)
			if err != nil {
				return nil, stats, err
			}
			if keep {
				stats.WaysKept++
				ways = append(ways, w)
			}
		}
	}

	// Build the graph over only the nodes referenced by kept ways.
	b := graph.NewBuilder(len(nodes), 4*len(ways))
	vid := make(map[int64]graph.VertexID)
	lookup := func(ref int64) (graph.VertexID, error) {
		if v, ok := vid[ref]; ok {
			return v, nil
		}
		nd, ok := nodes[ref]
		if !ok {
			return graph.NoVertex, fmt.Errorf("osm: way references missing node %d", ref)
		}
		v := b.AddVertex(geo.Point{Lat: nd.lat, Lon: nd.lon})
		vid[ref] = v
		return v, nil
	}
	for _, w := range ways {
		for i := 0; i+1 < len(w.refs); i++ {
			from, err := lookup(w.refs[i])
			if err != nil {
				return nil, stats, err
			}
			to, err := lookup(w.refs[i+1])
			if err != nil {
				return nil, stats, err
			}
			if from == to {
				continue
			}
			e := graph.Edge{From: from, To: to, Category: w.cat, SpeedKmh: w.speedKm}
			switch w.oneway {
			case 1:
				if _, err := b.AddEdge(e); err != nil {
					return nil, stats, err
				}
				stats.EdgesCreated++
			case -1:
				e.From, e.To = to, from
				if _, err := b.AddEdge(e); err != nil {
					return nil, stats, err
				}
				stats.EdgesCreated++
			default:
				if _, _, err := b.AddBidirectional(e); err != nil {
					return nil, stats, err
				}
				stats.EdgesCreated += 2
			}
		}
	}
	if b.NumVertices() == 0 {
		return nil, stats, errors.New("osm: no drivable ways found")
	}
	return b.Build(), stats, nil
}

func parseNode(start xml.StartElement) (int64, rawNode, error) {
	var id int64
	var nd rawNode
	var haveID, haveLat, haveLon bool
	for _, a := range start.Attr {
		switch a.Name.Local {
		case "id":
			v, err := strconv.ParseInt(a.Value, 10, 64)
			if err != nil {
				return 0, nd, fmt.Errorf("osm: bad node id %q: %w", a.Value, err)
			}
			id, haveID = v, true
		case "lat":
			v, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				return 0, nd, fmt.Errorf("osm: bad lat %q: %w", a.Value, err)
			}
			nd.lat, haveLat = v, true
		case "lon":
			v, err := strconv.ParseFloat(a.Value, 64)
			if err != nil {
				return 0, nd, fmt.Errorf("osm: bad lon %q: %w", a.Value, err)
			}
			nd.lon, haveLon = v, true
		}
	}
	if !haveID || !haveLat || !haveLon {
		return 0, nd, errors.New("osm: node missing id/lat/lon")
	}
	return id, nd, nil
}

// parseWay consumes the way element's body (nd refs + tags) and decides
// whether to keep it.
func parseWay(dec *xml.Decoder, start xml.StartElement) (rawWay, bool, error) {
	var w rawWay
	tags := make(map[string]string)
	for {
		tok, err := dec.Token()
		if err != nil {
			return w, false, fmt.Errorf("osm: truncated way: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "nd":
				for _, a := range t.Attr {
					if a.Name.Local == "ref" {
						ref, err := strconv.ParseInt(a.Value, 10, 64)
						if err != nil {
							return w, false, fmt.Errorf("osm: bad nd ref %q: %w", a.Value, err)
						}
						w.refs = append(w.refs, ref)
					}
				}
				dec.Skip() //nolint:errcheck
			case "tag":
				var k, v string
				for _, a := range t.Attr {
					switch a.Name.Local {
					case "k":
						k = a.Value
					case "v":
						v = a.Value
					}
				}
				tags[k] = v
				dec.Skip() //nolint:errcheck
			default:
				dec.Skip() //nolint:errcheck
			}
		case xml.EndElement:
			if t.Name.Local == start.Name.Local {
				cat, ok := highwayCategory[tags["highway"]]
				if !ok || len(w.refs) < 2 {
					return w, false, nil
				}
				w.cat = cat
				switch strings.TrimSpace(tags["oneway"]) {
				case "yes", "true", "1":
					w.oneway = 1
				case "-1", "reverse":
					w.oneway = -1
				}
				if ms := tags["maxspeed"]; ms != "" {
					w.speedKm = parseMaxspeed(ms)
				}
				return w, true, nil
			}
		}
	}
}

// parseMaxspeed understands "80", "80 km/h" and "50 mph"; anything else
// yields 0 (use category default).
func parseMaxspeed(s string) float64 {
	s = strings.TrimSpace(strings.ToLower(s))
	mph := strings.HasSuffix(s, "mph")
	s = strings.TrimSuffix(s, "mph")
	s = strings.TrimSuffix(strings.TrimSpace(s), "km/h")
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil || v <= 0 {
		return 0
	}
	if mph {
		v *= 1.609344
	}
	return v
}

package routing

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/pqueue"
)

// ParetoRoute is one non-dominated route: no other found route is at
// least as likely to have arrived by every deadline.
type ParetoRoute struct {
	Path []graph.EdgeID
	Dist *hist.Hist
}

// ParetoOptions configures skyline route enumeration.
type ParetoOptions struct {
	// Horizon bounds the search: partial paths whose optimistic arrival
	// exceeds it are pruned (play the role of the budget in PBR).
	Horizon float64
	// MaxRoutes caps the returned skyline (0 = 16). Routes are kept in
	// increasing-mean order when trimming.
	MaxRoutes int
	// MaxFrontier caps per-(vertex, incoming edge) label frontiers
	// (0 = 8).
	MaxFrontier int
	// MaxExpansions bounds search effort (0 = 200000).
	MaxExpansions int
}

// ParetoRoutes enumerates the stochastic skyline between source and
// dest: the set of routes whose travel-time distributions are mutually
// non-dominated under first-order stochastic dominance. A user with an
// unknown deadline can pick from this set; PBR with a concrete budget
// always returns a member of it (up to search caps).
func ParetoRoutes(g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts ParetoOptions) ([]ParetoRoute, error) {
	if opts.Horizon <= 0 || math.IsNaN(opts.Horizon) {
		return nil, fmt.Errorf("routing: ParetoRoutes with invalid horizon %v", opts.Horizon)
	}
	if int(source) < 0 || int(source) >= g.NumVertices() ||
		int(dest) < 0 || int(dest) >= g.NumVertices() {
		return nil, errors.New("routing: ParetoRoutes with out-of-range endpoint")
	}
	if source == dest {
		return []ParetoRoute{{Path: nil, Dist: hist.Delta(0, c.Width())}}, nil
	}
	maxRoutes := opts.MaxRoutes
	if maxRoutes <= 0 {
		maxRoutes = 16
	}
	maxFrontier := opts.MaxFrontier
	if maxFrontier <= 0 {
		maxFrontier = 8
	}
	maxExpansions := opts.MaxExpansions
	if maxExpansions <= 0 {
		maxExpansions = 200000
	}

	h := ReversePotentials(g, c.MinEdgeTime, dest)
	if math.IsInf(h[source], 1) {
		return nil, ErrUnreachable
	}

	var arena []label
	var frontiers frontierStore
	var pq pqueue.Heap[int32]
	var destLabels []int32

	push := func(v graph.VertexID, last graph.EdgeID, d *hist.Hist, parent int32) {
		arena = append(arena, label{vertex: v, lastEdge: last, dist: d, parent: parent})
		pq.Push(d.Min+h[v], int32(len(arena)-1))
	}
	for _, e := range g.Out(source) {
		to := g.Edge(e).To
		if math.IsInf(h[to], 1) {
			continue
		}
		push(to, e, c.InitialHist(e), -1)
	}

	expansions := 0
	for pq.Len() > 0 && expansions < maxExpansions {
		idx, prio, _ := pq.Pop()
		lb := &arena[idx]
		if lb.dead {
			continue
		}
		if prio > opts.Horizon {
			break
		}
		expansions++
		if lb.vertex == dest {
			destLabels = append(destLabels, idx)
			continue
		}
		parentVertex := g.Edge(lb.lastEdge).From
		for _, next := range g.Out(lb.vertex) {
			ne := g.Edge(next)
			if ne.To == parentVertex || math.IsInf(h[ne.To], 1) {
				continue
			}
			nd := c.Extend(lb.dist, lb.lastEdge, next).TruncateAboveInPlace(opts.Horizon)
			if nd.Min+h[ne.To] > opts.Horizon {
				continue
			}
			fs := frontiers.slot(next, 0, maxFrontier)
			entries := frontiers.entries(fs)
			dominated := false
			keep := entries[:0]
			for _, fe := range entries {
				other := &arena[fe.labelIdx]
				if other.dead {
					continue
				}
				otherGE, ndGE := hist.CompareCDF(other.dist, nd)
				if otherGE {
					dominated = true
					keep = append(keep, fe)
					continue
				}
				if ndGE {
					other.dead = true
					continue
				}
				keep = append(keep, fe)
			}
			fs.n = int32(len(keep))
			if dominated || len(keep) >= maxFrontier {
				continue
			}
			push(ne.To, next, nd, idx)
			frontiers.push(fs, frontierEntry{labelIdx: int32(len(arena) - 1)}, maxFrontier)
		}
	}

	// Global skyline over all destination labels.
	var skyline []int32
	for _, idx := range destLabels {
		d := arena[idx].dist
		dominated := false
		keep := skyline[:0]
		for _, s := range skyline {
			sd := arena[s].dist
			if sd.DominatesOrEqual(d) {
				dominated = true
				keep = append(keep, s)
				continue
			}
			if d.Dominates(sd) {
				continue
			}
			keep = append(keep, s)
		}
		skyline = keep
		if !dominated {
			skyline = append(skyline, idx)
		}
	}
	sort.Slice(skyline, func(a, b int) bool {
		return arena[skyline[a]].dist.Mean() < arena[skyline[b]].dist.Mean()
	})
	if len(skyline) > maxRoutes {
		skyline = skyline[:maxRoutes]
	}
	out := make([]ParetoRoute, 0, len(skyline))
	for _, idx := range skyline {
		path, _ := reconstruct(arena, idx, false)
		out = append(out, ParetoRoute{Path: path, Dist: arena[idx].dist})
	}
	return out, nil
}

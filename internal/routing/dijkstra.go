// Package routing implements the paper's query algorithms on top of the
// hybrid cost model: deterministic Dijkstra (the mean-cost baseline and
// the optimistic potentials), and Probabilistic Budget Routing with the
// paper's four prunings — (a) A*-style optimistic remaining cost,
// (b) pivot path, (c) distribution cost shifting, (d) stochastic
// dominance — plus the anytime extension that returns the pivot path
// when a run-time limit expires.
package routing

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"stochroute/internal/graph"
	"stochroute/internal/pqueue"
)

// WeightFunc assigns a non-negative scalar weight to an edge.
type WeightFunc func(graph.EdgeID) float64

// ErrUnreachable is returned when no path exists between the endpoints.
var ErrUnreachable = errors.New("routing: destination unreachable")

// Dijkstra computes the minimum-weight path from source to dest under w.
// It returns the edge sequence and its total weight.
func Dijkstra(g *graph.Graph, w WeightFunc, source, dest graph.VertexID) ([]graph.EdgeID, float64, error) {
	if source == dest {
		return nil, 0, nil
	}
	dist, via, err := dijkstraForward(g, w, source, dest)
	if err != nil {
		return nil, 0, err
	}
	if math.IsInf(dist[dest], 1) {
		return nil, 0, ErrUnreachable
	}
	// Reconstruct backwards through via edges.
	var rev []graph.EdgeID
	v := dest
	for v != source {
		e := via[v]
		if e == graph.NoEdge {
			return nil, 0, fmt.Errorf("routing: broken predecessor chain at vertex %d", v)
		}
		rev = append(rev, e)
		v = g.Edge(e).From
	}
	path := make([]graph.EdgeID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return path, dist[dest], nil
}

func dijkstraForward(g *graph.Graph, w WeightFunc, source, dest graph.VertexID) ([]float64, []graph.EdgeID, error) {
	n := g.NumVertices()
	dist := make([]float64, n)
	via := make([]graph.EdgeID, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		via[i] = graph.NoEdge
	}
	dist[source] = 0
	pq := pqueue.NewIndexedHeap(n)
	pq.PushOrDecrease(int(source), 0)
	for pq.Len() > 0 {
		vi, d, _ := pq.Pop()
		v := graph.VertexID(vi)
		if d > dist[v] {
			continue
		}
		if v == dest {
			break
		}
		for _, e := range g.Out(v) {
			we := w(e)
			if we < 0 || math.IsNaN(we) {
				return nil, nil, fmt.Errorf("routing: negative or NaN weight %v on edge %d", we, e)
			}
			to := g.Edge(e).To
			nd := d + we
			if nd < dist[to] {
				dist[to] = nd
				via[to] = e
				pq.PushOrDecrease(int(to), nd)
			}
		}
	}
	return dist, via, nil
}

// ReversePotentials computes, for every vertex v, the minimum possible
// cost h(v) of reaching dest from v under the optimistic edge weights w
// (a backward Dijkstra over reversed edges). h is admissible for any
// cost model whose edge times are bounded below by w, which is the
// paper's pruning (a).
func ReversePotentials(g *graph.Graph, w WeightFunc, dest graph.VertexID) []float64 {
	h := make([]float64, g.NumVertices())
	reversePotentialsInto(g, w, dest, h, &pqueue.IndexedHeap{})
	return h
}

// reversePotentialsInto is ReversePotentials on caller-owned scratch: h
// must have length NumVertices and is overwritten; pq is Reset and
// reused. PBR routes every query through this via a sync.Pool so the
// per-query |V| slice and heap allocations of the public function never
// hit the hot path.
func reversePotentialsInto(g *graph.Graph, w WeightFunc, dest graph.VertexID, h []float64, pq *pqueue.IndexedHeap) {
	for i := range h {
		h[i] = math.Inf(1)
	}
	h[dest] = 0
	pq.Reset(len(h))
	pq.PushOrDecrease(int(dest), 0)
	for pq.Len() > 0 {
		vi, d, _ := pq.Pop()
		v := graph.VertexID(vi)
		if d > h[v] {
			continue
		}
		for _, e := range g.In(v) {
			from := g.Edge(e).From
			nd := d + w(e)
			if nd < h[from] {
				h[from] = nd
				pq.PushOrDecrease(int(from), nd)
			}
		}
	}
}

// potentialsScratch is the pooled per-query state of the exact
// (backward-Dijkstra) potentials path: the |V| bound slice, the Dijkstra
// heap, and a pre-built PotentialFunc closure over the slice so checking
// a scratch out of the pool allocates nothing.
type potentialsScratch struct {
	h  []float64
	pq *pqueue.IndexedHeap
	fn PotentialFunc
}

var potentialsPool = sync.Pool{New: func() any {
	ps := &potentialsScratch{pq: &pqueue.IndexedHeap{}}
	ps.fn = func(v graph.VertexID) float64 { return ps.h[v] }
	return ps
}}

// ValidatePath checks that edges form a contiguous source→dest path.
func ValidatePath(g *graph.Graph, edges []graph.EdgeID, source, dest graph.VertexID) error {
	if len(edges) == 0 {
		if source == dest {
			return nil
		}
		return errors.New("routing: empty path between distinct endpoints")
	}
	if g.Edge(edges[0]).From != source {
		return fmt.Errorf("routing: path starts at %d, want %d", g.Edge(edges[0]).From, source)
	}
	for i := 1; i < len(edges); i++ {
		if g.Edge(edges[i-1]).To != g.Edge(edges[i]).From {
			return fmt.Errorf("routing: path discontinuous at hop %d", i)
		}
	}
	if g.Edge(edges[len(edges)-1]).To != dest {
		return fmt.Errorf("routing: path ends at %d, want %d", g.Edge(edges[len(edges)-1]).To, dest)
	}
	return nil
}

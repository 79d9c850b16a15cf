package traj

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"stochroute/internal/graph"
	"stochroute/internal/par"
	"stochroute/internal/pqueue"
	"stochroute/internal/rng"
)

// Trajectory is one simulated vehicle trip: a contiguous edge sequence
// with the observed travel time of each edge, departing at a
// time-of-day timestamp.
type Trajectory struct {
	Edges []graph.EdgeID
	Times []float64 // seconds, parallel to Edges

	// Departure is the trip's start time in seconds since local
	// midnight (wrapped into [0, DaySeconds) by consumers). Zero places
	// the trip in slice 0 of any partition.
	Departure float64
}

// Slice returns the time-of-day slice the trip departs in under a
// k-slice partition of the day.
func (t *Trajectory) Slice(k int) int { return SliceIndex(t.Departure, k) }

// MaxTravelTime is the longest travel time, in seconds, a trajectory may
// record on one edge: one day. The observation store counts times on a
// grid of int32 steps, and CheckWidth keeps this bound's step in range.
const MaxTravelTime = DaySeconds

// Validate reports whether the trajectory can be taken in: as many times
// as edges, a finite non-negative departure, every edge an edge of g,
// every travel time in [0, MaxTravelTime], and every hop contiguous. An
// empty trajectory is valid; it carries no observation. With a nil g
// only the times are checked.
func (t *Trajectory) Validate(g *graph.Graph) error {
	if len(t.Edges) != len(t.Times) {
		return fmt.Errorf("traj: %d edges but %d times", len(t.Edges), len(t.Times))
	}
	if !(t.Departure >= 0) || math.IsInf(t.Departure, 1) {
		return fmt.Errorf("traj: invalid departure %v", t.Departure)
	}
	for i, x := range t.Times {
		if !(x >= 0 && x <= MaxTravelTime) {
			return fmt.Errorf("traj: invalid time %v at hop %d", x, i)
		}
	}
	if g == nil {
		return nil
	}
	for i, e := range t.Edges {
		if e < 0 || int(e) >= g.NumEdges() {
			return fmt.Errorf("traj: edge %d outside graph", e)
		}
		if i > 0 && g.Edge(t.Edges[i-1]).To != g.Edge(e).From {
			return fmt.Errorf("traj: trajectory discontinuous at hop %d", i)
		}
	}
	return nil
}

// Acceptable reports whether t may be folded into the observations of
// g: it has an edge and Validate(g) passes. With a nil g only the
// checks that need no graph are made, which is what the gateway can
// judge of a trip before any replica sees it.
func (t *Trajectory) Acceptable(g *graph.Graph) bool {
	return len(t.Edges) > 0 && t.Validate(g) == nil
}

// SampleTraversalAt draws the observed travel time of edge e given the
// previous edge's latent mode (-1 for the first edge of a trip) under
// the mode prior of the given time-of-day slice (the trip's departure
// slice), and returns the drawn time together with e's mode for
// chaining. via is the intersection crossed between the previous edge
// and e (ignored when prevMode < 0).
func (w *World) SampleTraversalAt(r *rng.RNG, e graph.EdgeID, via graph.VertexID, prevMode, slice int) (t float64, mode int) {
	prior := w.ModePriorAt(slice)
	if prevMode < 0 {
		mode = r.Categorical(prior)
	} else {
		stick := 0.0
		if w.depVertex[via] {
			stick = w.cfg.Stickiness
		}
		if r.Bool(stick) {
			mode = prevMode
		} else {
			mode = r.Categorical(prior)
		}
	}
	t = w.ModeTime(e, mode)
	if w.cfg.NoiseProb > 0 && r.Bool(w.cfg.NoiseProb) {
		if r.Bool(0.5) {
			t += w.cfg.BucketWidth
		} else {
			t -= w.cfg.BucketWidth
		}
	}
	return t, mode
}

// WalkConfig parameterises trajectory generation. Two trip shapes are
// mixed: random walks (broad edge-pair coverage) and *route trips* —
// vehicles following sensible origin→destination routes drawn from a
// shared pool, the way real fleet trajectories do. Route trips are what
// teach the estimator about long, query-like pre-paths.
type WalkConfig struct {
	NumTrajectories int
	MinEdges        int
	MaxEdges        int // applies to random walks only
	Seed            uint64

	// RouteFraction of trajectories follow pooled routes (0 = all
	// random walks).
	RouteFraction float64
	// NumRoutes is the route-pool size (0 with RouteFraction > 0 uses
	// 1000). Each route is a shortest path under per-route jittered
	// free-flow weights between random endpoints.
	NumRoutes int
	// RouteJitter is the multiplicative weight jitter range (default
	// 0.25 → weights in [0.75, 1.25]) that makes pool routes diverse.
	RouteJitter float64

	// Slices partitions the day into this many equal time-of-day
	// slices: each trip draws a departure slice (see SliceWeights), a
	// uniform departure timestamp within it, and samples its travel
	// times under that slice's world mode prior. 0 or 1 keeps the
	// legacy behaviour bit-for-bit: every trip departs at 0 and no
	// extra randomness is drawn.
	Slices int
	// SliceWeights optionally weights the departure-slice draw (length
	// Slices; need not be normalised). Nil means uniform. A one-hot
	// vector concentrates the whole stream in one slice — the shape of
	// a rush-hour drift replay.
	SliceWeights []float64
}

// DefaultWalkConfig generates enough trips to give most edge pairs
// usable support on the default network.
func DefaultWalkConfig() WalkConfig {
	return WalkConfig{
		NumTrajectories: 20000,
		MinEdges:        4,
		MaxEdges:        30,
		Seed:            99,
		RouteFraction:   0.5,
		NumRoutes:       1500,
		RouteJitter:     0.25,
	}
}

// GenerateTrajectories simulates vehicle trips through the world,
// sampling per-edge travel times from the latent-mode chain. A
// RouteFraction of trips follow pooled origin→destination routes; the
// rest are non-U-turning random walks. Walks that dead-end before
// MinEdges are discarded and retried; the function errors if the graph
// cannot support walks of the requested length.
func GenerateTrajectories(w *World, cfg WalkConfig) ([]Trajectory, error) {
	return generateTrajectories(w, cfg, buildRoutePool)
}

// generateTrajectories is GenerateTrajectories with its route pool built
// by routePool, so a test can hold the trips against a serial reference
// pool builder.
func generateTrajectories(w *World, cfg WalkConfig, routePool func(*World, *rng.RNG, WalkConfig) [][]graph.EdgeID) ([]Trajectory, error) {
	if cfg.NumTrajectories <= 0 {
		return nil, errors.New("traj: NumTrajectories must be positive")
	}
	if cfg.MinEdges < 1 || cfg.MaxEdges < cfg.MinEdges {
		return nil, fmt.Errorf("traj: invalid walk length range [%d, %d]", cfg.MinEdges, cfg.MaxEdges)
	}
	if cfg.RouteFraction < 0 || cfg.RouteFraction > 1 {
		return nil, fmt.Errorf("traj: RouteFraction %v outside [0,1]", cfg.RouteFraction)
	}
	k := NumSlices(cfg.Slices)
	var weights []float64
	if k > 1 {
		weights = cfg.SliceWeights
		if weights == nil {
			weights = make([]float64, k)
			for i := range weights {
				weights[i] = 1
			}
		}
		if len(weights) != k {
			return nil, fmt.Errorf("traj: %d slice weights for %d slices", len(weights), k)
		}
		total := 0.0
		for _, wt := range weights {
			if math.IsNaN(wt) || math.IsInf(wt, 0) || wt < 0 {
				return nil, fmt.Errorf("traj: invalid slice weight %v", wt)
			}
			total += wt
		}
		if total <= 0 {
			return nil, errors.New("traj: slice weights sum to zero")
		}
		norm := make([]float64, k)
		for i, wt := range weights {
			norm[i] = wt / total
		}
		weights = norm
	}
	g := w.g
	if g.NumEdges() == 0 {
		return nil, errors.New("traj: empty graph")
	}
	r := rng.New(cfg.Seed)

	var pool [][]graph.EdgeID
	if cfg.RouteFraction > 0 {
		pool = routePool(w, r.Split("routes"), cfg)
	}

	out := make([]Trajectory, 0, cfg.NumTrajectories)
	const maxRetriesPerTrip = 200
	for len(out) < cfg.NumTrajectories {
		// The legacy (single-slice) path draws exactly the RNG sequence
		// it always has; slice and departure draws only happen when the
		// day is actually partitioned.
		slice := 0
		depart := 0.0
		if k > 1 {
			slice = r.Categorical(weights)
			depart = r.Range(SliceStart(slice, k), SliceStart(slice, k)+SliceDuration(k))
		}
		if len(pool) > 0 && r.Bool(cfg.RouteFraction) {
			route := pool[r.Intn(len(pool))]
			tr := traverseRoute(w, r, route, slice)
			tr.Departure = depart
			out = append(out, tr)
			continue
		}
		var tr Trajectory
		ok := false
		for attempt := 0; attempt < maxRetriesPerTrip; attempt++ {
			tr = walkOnce(w, r, cfg, slice)
			if len(tr.Edges) >= cfg.MinEdges {
				ok = true
				break
			}
		}
		if !ok {
			return out, fmt.Errorf("traj: could not complete a %d-edge walk after %d attempts",
				cfg.MinEdges, maxRetriesPerTrip)
		}
		tr.Departure = depart
		out = append(out, tr)
	}
	return out, nil
}

// traverseRoute samples travel times for a fixed edge sequence from the
// latent-mode chain under the departure slice's mode prior.
func traverseRoute(w *World, r *rng.RNG, route []graph.EdgeID, slice int) Trajectory {
	tr := Trajectory{
		Edges: route,
		Times: make([]float64, len(route)),
	}
	prevMode := -1
	for i, e := range route {
		via := w.g.Edge(e).From
		t, mode := w.SampleTraversalAt(r, e, via, prevMode, slice)
		tr.Times[i] = t
		prevMode = mode
	}
	return tr
}

// buildRoutePool computes diverse sensible routes: shortest paths under
// per-route jittered free-flow weights between random endpoint pairs,
// at most numRoutes*3 attempts for numRoutes routes. Routes shorter than
// MinEdges are discarded.
//
// An attempt draws |E| jitter factors and then its two endpoints from r,
// so once it knows where in r's stream it starts it needs nothing from
// any other attempt. A serial pass records each attempt's generator
// state and endpoints and advances r with the very calls the attempt
// makes (Intn may reject and draw again, so its draws cannot be
// counted); the Dijkstras then run as par.For jobs, each re-drawing its
// weights from the recorded state into a worker's reused routeSearch.
// Routes are accepted in attempt order and a batch holds no more
// attempts than routes still missing, so the pool ends at the attempt a
// one-at-a-time loop ends at and holds the same routes on any number of
// cores.
func buildRoutePool(w *World, r *rng.RNG, cfg WalkConfig) [][]graph.EdgeID {
	g := w.g
	numRoutes := cfg.NumRoutes
	if numRoutes <= 0 {
		numRoutes = 1000
	}
	jitter := cfg.RouteJitter
	if jitter <= 0 {
		jitter = 0.25
	}
	freeflow := make([]float64, g.NumEdges())
	for e := range freeflow {
		freeflow[e] = g.Edge(graph.EdgeID(e)).FreeFlowSeconds()
	}
	type attempt struct {
		state    rng.RNG // r at the attempt's first draw
		src, dst graph.VertexID
	}
	searches := sync.Pool{New: func() any { return newRouteSearch(g) }}
	var pool [][]graph.EdgeID
	for started, maxAttempts := 0, numRoutes*3; started < maxAttempts && len(pool) < numRoutes; {
		n := min(numRoutes-len(pool), maxAttempts-started)
		started += n
		batch := make([]attempt, n)
		for i := range batch {
			batch[i].state = *r
			for range freeflow {
				r.Range(1-jitter, 1+jitter)
			}
			batch[i].src = graph.VertexID(r.Intn(g.NumVertices()))
			batch[i].dst = graph.VertexID(r.Intn(g.NumVertices()))
		}
		routes := make([][]graph.EdgeID, n)
		// A route search cannot fail.
		_ = par.For(n, 0, func(i int) error {
			a := &batch[i]
			if a.src == a.dst {
				return nil
			}
			s := searches.Get().(*routeSearch)
			defer searches.Put(s)
			draws := a.state
			for e, ff := range freeflow {
				s.weights[e] = ff * draws.Range(1-jitter, 1+jitter)
			}
			routes[i] = s.shortestPath(g, a.src, a.dst)
			return nil
		})
		for _, route := range routes {
			if len(route) >= cfg.MinEdges {
				pool = append(pool, route)
			}
		}
	}
	return pool
}

// routeSearch is one worker's Dijkstra state for route-pool attempts,
// reused from attempt to attempt.
type routeSearch struct {
	weights []float64 // per edge, the attempt's jittered free-flow times
	dist    []float64
	via     []graph.EdgeID // the edge that settled each reached vertex
	pq      *pqueue.IndexedHeap
}

func newRouteSearch(g *graph.Graph) *routeSearch {
	return &routeSearch{
		weights: make([]float64, g.NumEdges()),
		dist:    make([]float64, g.NumVertices()),
		via:     make([]graph.EdgeID, g.NumVertices()),
		pq:      pqueue.NewIndexedHeap(g.NumVertices()),
	}
}

// shortestPath is a compact Dijkstra from src to dst over s.weights (the
// routing package sits above traj in the dependency order, so a local
// implementation avoids an import cycle). It returns nil when dst is
// unreachable.
func (s *routeSearch) shortestPath(g *graph.Graph, src, dst graph.VertexID) []graph.EdgeID {
	const inf = math.MaxFloat64
	dist, via := s.dist, s.via
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	s.pq.Reset(len(dist))
	s.pq.PushOrDecrease(int(src), 0)
	for s.pq.Len() > 0 {
		vi, d, _ := s.pq.Pop()
		v := graph.VertexID(vi)
		if d > dist[v] {
			continue
		}
		if v == dst {
			break
		}
		for _, e := range g.Out(v) {
			to := g.Edge(e).To
			if nd := d + s.weights[e]; nd < dist[to] {
				dist[to] = nd
				via[to] = e
				s.pq.PushOrDecrease(int(to), nd)
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	hops := 0
	for v := dst; v != src; v = g.Edge(via[v]).From {
		hops++
	}
	out := make([]graph.EdgeID, hops)
	for v := dst; v != src; v = g.Edge(via[v]).From {
		hops--
		out[hops] = via[v]
	}
	return out
}

func walkOnce(w *World, r *rng.RNG, cfg WalkConfig, slice int) Trajectory {
	g := w.g
	length := cfg.MinEdges + r.Intn(cfg.MaxEdges-cfg.MinEdges+1)
	start := graph.VertexID(r.Intn(g.NumVertices()))
	var tr Trajectory
	prevMode := -1
	prevFrom := graph.NoVertex
	cur := start
	for len(tr.Edges) < length {
		outs := g.Out(cur)
		if len(outs) == 0 {
			break
		}
		// Choose a next edge avoiding an immediate U-turn when possible.
		var candidates []graph.EdgeID
		for _, e := range outs {
			if g.Edge(e).To != prevFrom {
				candidates = append(candidates, e)
			}
		}
		if len(candidates) == 0 {
			candidates = outs
		}
		e := candidates[r.Intn(len(candidates))]
		t, mode := w.SampleTraversalAt(r, e, cur, prevMode, slice)
		tr.Edges = append(tr.Edges, e)
		tr.Times = append(tr.Times, t)
		prevMode = mode
		prevFrom = cur
		cur = g.Edge(e).To
	}
	return tr
}

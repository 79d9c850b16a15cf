package traj

import (
	"math"
	"reflect"
	"runtime"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/israce"
	"stochroute/internal/netgen"
	"stochroute/internal/pqueue"
	"stochroute/internal/rng"
)

// routePoolEvents counts what a serial route-pool build went through.
type routePoolEvents struct {
	attempts, sameEndpoints, tooShort int
	capped                            bool // the attempt limit ended the build short of numRoutes
}

// serialRoutePool is the route pool as one loop builds it, attempt after
// attempt on one core, each Dijkstra on freshly allocated state: the
// reference buildRoutePool must equal on any number of cores.
func serialRoutePool(w *World, r *rng.RNG, cfg WalkConfig, ev *routePoolEvents) [][]graph.EdgeID {
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
	var pool [][]graph.EdgeID
	weights := make([]float64, g.NumEdges())
	for attempt := 0; attempt < numRoutes*3 && len(pool) < numRoutes; attempt++ {
		ev.attempts++
		for e := range weights {
			weights[e] = freeflow[e] * r.Range(1-jitter, 1+jitter)
		}
		src := graph.VertexID(r.Intn(g.NumVertices()))
		dst := graph.VertexID(r.Intn(g.NumVertices()))
		if src == dst {
			ev.sameEndpoints++
			continue
		}
		route := serialShortestPath(g, weights, src, dst)
		if len(route) >= cfg.MinEdges {
			pool = append(pool, route)
		} else {
			ev.tooShort++
		}
	}
	ev.capped = len(pool) < numRoutes
	return pool
}

func serialShortestPath(g *graph.Graph, weights []float64, src, dst graph.VertexID) []graph.EdgeID {
	const inf = math.MaxFloat64
	dist := make([]float64, g.NumVertices())
	via := make([]graph.EdgeID, g.NumVertices())
	for i := range dist {
		dist[i] = inf
		via[i] = graph.NoEdge
	}
	dist[src] = 0
	pq := pqueue.NewIndexedHeap(g.NumVertices())
	pq.PushOrDecrease(int(src), 0)
	for pq.Len() > 0 {
		vi, d, _ := pq.Pop()
		v := graph.VertexID(vi)
		if d > dist[v] {
			continue
		}
		if v == dst {
			break
		}
		for _, e := range g.Out(v) {
			to := g.Edge(e).To
			if nd := d + weights[e]; nd < dist[to] {
				dist[to] = nd
				via[to] = e
				pq.PushOrDecrease(int(to), nd)
			}
		}
	}
	if dist[dst] == inf {
		return nil
	}
	var rev []graph.EdgeID
	for v := dst; v != src; v = g.Edge(via[v]).From {
		rev = append(rev, via[v])
	}
	out := make([]graph.EdgeID, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

func gridWorld(t testing.TB, rows, cols int, mutate func(*WorldConfig)) *World {
	t.Helper()
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = rows, cols
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := DefaultWorldConfig()
	if mutate != nil {
		mutate(&wcfg)
	}
	w, err := NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestRoutePoolMatchesSerialReferenceAcrossWorkers: the batched,
// par.For route pool hands GenerateTrajectories exactly the routes the
// serial loop drew, so every trajectory is the same bits at GOMAXPROCS
// 1, 2 and 4 — on a city-shaped and a metro-shaped config, and on a tiny
// grid where attempts with equal endpoints, routes below MinEdges and
// the numRoutes*3 attempt limit all occur.
func TestRoutePoolMatchesSerialReferenceAcrossWorkers(t *testing.T) {
	metroWalk := DefaultWalkConfig()
	metroWalk.NumTrajectories = 1500
	metroWalk.RouteFraction = 0.9
	metroWalk.NumRoutes = 120
	metroWalk.Slices = 4
	cityWalk := DefaultWalkConfig()
	cityWalk.NumTrajectories = 2000
	cases := []struct {
		name        string
		world       func(t *testing.T) *World
		walk        WalkConfig
		wantAllKind bool // every kind of discarded attempt, and the cap
	}{
		{"tiny", func(t *testing.T) *World { return gridWorld(t, 3, 3, nil) },
			WalkConfig{NumTrajectories: 200, MinEdges: 4, MaxEdges: 6, Seed: 3, RouteFraction: 0.5, NumRoutes: 40}, true},
		{"metro-shaped", func(t *testing.T) *World {
			return gridWorld(t, 30, 30, func(c *WorldConfig) {
				priors, err := PeakedSlicePriors(c.ModePrior, 4, 1, 0.6)
				if err != nil {
					t.Fatal(err)
				}
				c.SlicePriors = priors
			})
		}, metroWalk, false},
		{"city-shaped", func(t *testing.T) *World { return gridWorld(t, 60, 60, nil) }, cityWalk, false},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "city-shaped" && (testing.Short() || israce.Enabled) {
				t.Skip("1 500 Dijkstras on 3 600 vertices, four times over")
			}
			w := tc.world(t)
			var ev routePoolEvents
			want, err := generateTrajectories(w, tc.walk, func(w *World, r *rng.RNG, cfg WalkConfig) [][]graph.EdgeID {
				return serialRoutePool(w, r, cfg, &ev)
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d attempts: %d with equal endpoints, %d below MinEdges, capped %v", ev.attempts, ev.sameEndpoints, ev.tooShort, ev.capped)
			if tc.wantAllKind && (ev.sameEndpoints == 0 || ev.tooShort == 0 || !ev.capped) {
				t.Fatalf("the config no longer exercises every case: %+v", ev)
			}
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := GenerateTrajectories(w, tc.walk)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("GOMAXPROCS %d: trajectories differ from the serial route pool's", procs)
				}
			}
		})
	}
}

// BenchmarkGenerateTrajectories simulates the city fixture's trips: a
// 60 × 60 grid, 6 000 trips, the default walk mix (half of them on a
// pool of 1 500 routes, whose Dijkstras are nearly all of the time).
func BenchmarkGenerateTrajectories(b *testing.B) {
	w := gridWorld(b, 60, 60, nil)
	walk := DefaultWalkConfig()
	walk.NumTrajectories = 6000
	for b.Loop() {
		if _, err := GenerateTrajectories(w, walk); err != nil {
			b.Fatal(err)
		}
	}
}

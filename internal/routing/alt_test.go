package routing

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"stochroute/internal/geo"
	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/pqueue"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

func TestSelectLandmarks(t *testing.T) {
	g, _ := testSubstrate(t)
	if got := SelectLandmarks(g, nil, 0); got != nil {
		t.Fatalf("count 0: got %v, want nil", got)
	}
	lms := SelectLandmarks(g, nil, 8)
	if len(lms) != 8 {
		t.Fatalf("got %d landmarks, want 8", len(lms))
	}
	seen := make(map[graph.VertexID]bool)
	for _, lm := range lms {
		if seen[lm] {
			t.Fatalf("duplicate landmark %d", lm)
		}
		seen[lm] = true
	}
	again := SelectLandmarks(g, nil, 8)
	for i := range lms {
		if lms[i] != again[i] {
			t.Fatalf("selection not deterministic at %d: %d vs %d", i, lms[i], again[i])
		}
	}
	// Asking for more landmarks than candidates returns all candidates.
	cands := []graph.VertexID{3, 1, 4}
	all := SelectLandmarks(g, cands, 10)
	if len(all) != 3 || all[0] != 3 || all[1] != 1 || all[2] != 4 {
		t.Fatalf("count > candidates: got %v, want the candidates verbatim", all)
	}
	// Selection from grid-cell representatives stays within the candidates.
	reps := graph.NewGridIndex(g, 300).CellRepresentatives()
	inReps := make(map[graph.VertexID]bool)
	for _, v := range reps {
		inReps[v] = true
	}
	for _, lm := range SelectLandmarks(g, reps, 4) {
		if !inReps[lm] {
			t.Fatalf("landmark %d not a candidate", lm)
		}
	}
}

func TestBuildALTErrors(t *testing.T) {
	g, kb := testSubstrate(t)
	if _, err := BuildALT(g, kb.MinEdgeTime, nil); err == nil {
		t.Fatal("BuildALT with no landmarks succeeded")
	}
	bad := func(graph.EdgeID) float64 { return -1 }
	if _, err := BuildALT(g, bad, []graph.VertexID{0}); err == nil {
		t.Fatal("BuildALT with negative weights succeeded")
	}
	// The weights are checked once, in edge order, before any sweep: the
	// error names the lowest offending edge wherever the landmarks are
	// and however many workers would have swept.
	for _, tc := range []struct {
		name string
		bad  map[graph.EdgeID]float64
		want string
	}{
		{"negative before NaN", map[graph.EdgeID]float64{5: -2.5, 9: math.NaN()}, "routing: negative or NaN weight -2.5 on edge 5"},
		{"NaN before negative", map[graph.EdgeID]float64{3: math.NaN(), 7: -1}, "routing: negative or NaN weight NaN on edge 3"},
		{"last edge", map[graph.EdgeID]float64{graph.EdgeID(g.NumEdges() - 1): -1}, fmt.Sprintf("routing: negative or NaN weight -1 on edge %d", g.NumEdges()-1)},
	} {
		w := func(e graph.EdgeID) float64 {
			if v, ok := tc.bad[e]; ok {
				return v
			}
			return kb.MinEdgeTime(e)
		}
		for _, procs := range []int{1, 4} {
			_, err := buildALTAt(procs, g, w, []graph.VertexID{graph.VertexID(g.NumVertices() - 1), 0})
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s, GOMAXPROCS %d: err = %v, want %q", tc.name, procs, err, tc.want)
			}
		}
	}
}

// buildALTAt builds under the given GOMAXPROCS and restores the setting.
func buildALTAt(procs int, g *graph.Graph, w WeightFunc, lms []graph.VertexID) (*ALT, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	return BuildALT(g, w, lms)
}

// TestBuildALTBitIdenticalAcrossWorkers: each sweep writes one column of
// one table from scratch of its own, so one worker running the 2L sweeps
// in order and four running them side by side fill the same tables — on
// a slice's own metric and on the min-across-slices one — and either way
// the weight function is read exactly once per edge.
func TestBuildALTBitIdenticalAcrossWorkers(t *testing.T) {
	g, set := testModelSet(t)
	lms := SelectLandmarks(g, nil, 8)
	for name, metric := range map[string]WeightFunc{
		"slice metric":      set.At(1).MinEdgeTime,
		"min across slices": set.MinEdgeTimeAcrossSlices,
	} {
		var want *ALT
		for _, procs := range []int{1, 4} {
			reads := make([]int, g.NumEdges())
			got, err := buildALTAt(procs, g, func(e graph.EdgeID) float64 { reads[e]++; return metric(e) }, lms)
			if err != nil {
				t.Fatal(err)
			}
			for e, n := range reads {
				if n != 1 {
					t.Fatalf("%s, GOMAXPROCS %d: weight of edge %d read %d times", name, procs, e, n)
				}
			}
			if want == nil {
				want = got
				continue
			}
			if got.slack != want.slack {
				t.Fatalf("%s: slack %v with 1 worker, %v with %d", name, want.slack, got.slack, procs)
			}
			for i := range want.fromLm {
				// == on purpose: an unreachable +Inf must match too, and no
				// entry is NaN.
				if got.fromLm[i] != want.fromLm[i] || got.toLm[i] != want.toLm[i] {
					t.Fatalf("%s: table entry %d (vertex %d, landmark %d) differs between 1 and %d workers: from %v / %v, to %v / %v",
						name, i, i/len(lms), i%len(lms), procs, want.fromLm[i], got.fromLm[i], want.toLm[i], got.toLm[i])
				}
			}
		}
	}
}

// TestBuildALTInfiniteWeightClosesEdge: +Inf is a weight BuildALT
// accepts. The edge is never relaxed, and a vertex only it led to is as
// unreachable as one in another component.
func TestBuildALTInfiniteWeightClosesEdge(t *testing.T) {
	b := graph.NewBuilder(2, 2)
	a0 := b.AddVertex(geo.Point{Lat: 0, Lon: 0})
	a1 := b.AddVertex(geo.Point{Lat: 0, Lon: 0.001})
	out, _, err := b.AddBidirectional(graph.Edge{From: a0, To: a1})
	if err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	w := func(e graph.EdgeID) float64 {
		if e == out {
			return math.Inf(1)
		}
		return 10
	}
	alt, err := BuildALT(g, w, []graph.VertexID{a0})
	if err != nil {
		t.Fatalf("BuildALT with a +Inf weight: %v", err)
	}
	if d := alt.fromLm[a1]; !math.IsInf(float64(d), 1) {
		t.Errorf("dist(a0 → a1) = %v over the closed edge, want +Inf", d)
	}
	if d := alt.toLm[a1]; d != 10 {
		t.Errorf("dist(a1 → a0) = %v over the open edge, want 10", d)
	}
}

// TestALTAdmissibility: the ALT triangle-inequality bound must never
// exceed the exact backward-Dijkstra potential under the same metric —
// otherwise pruning (a) can cut the optimal path.
func TestALTAdmissibility(t *testing.T) {
	g, kb := testSubstrate(t)
	lms := SelectLandmarks(g, nil, 8)
	alt, err := BuildALT(g, kb.MinEdgeTime, lms)
	if err != nil {
		t.Fatal(err)
	}
	for _, dest := range []graph.VertexID{0, graph.VertexID(g.NumVertices() / 2), graph.VertexID(g.NumVertices() - 1)} {
		exact := exactPotentials(g, kb.MinEdgeTime, dest)
		fn, release := alt.Potentials(dest)
		if fn(dest) != 0 {
			t.Errorf("dest %d: h(dest) = %v, want 0", dest, fn(dest))
		}
		for v := 0; v < g.NumVertices(); v++ {
			h := fn(graph.VertexID(v))
			if h < 0 || math.IsNaN(h) {
				t.Fatalf("dest %d: h(%d) = %v", dest, v, h)
			}
			if math.IsInf(exact[v], 1) {
				continue // v cannot reach dest; any bound is admissible
			}
			if h > exact[v]+1e-9 {
				t.Errorf("dest %d: ALT h(%d) = %v exceeds exact %v", dest, v, h, exact[v])
			}
		}
		if release != nil {
			release()
		}
	}
}

// TestALTAdmissibilityTimeExpanded: tables built on the
// min-across-slices metric must stay admissible against
// MinEdgeTimeWithin for any horizon — the engine serves every
// time-expanded query of any budget from ONE min table.
func TestALTAdmissibilityTimeExpanded(t *testing.T) {
	g, set := testModelSet(t)
	lms := SelectLandmarks(g, nil, 8)
	alt, err := BuildALT(g, set.MinEdgeTimeAcrossSlices, lms)
	if err != nil {
		t.Fatal(err)
	}
	for _, horizon := range []float64{120, 900, 7200} {
		tc := set.TimeExpandedCoster(43150, nil)
		within := func(e graph.EdgeID) float64 { return tc.MinEdgeTimeWithin(e, horizon) }
		dest := graph.VertexID(g.NumVertices() / 3)
		exact := exactPotentials(g, within, dest)
		fn, release := alt.Potentials(dest)
		for v := 0; v < g.NumVertices(); v++ {
			h := fn(graph.VertexID(v))
			if math.IsInf(exact[v], 1) {
				continue
			}
			if h > exact[v]+1e-9 {
				t.Errorf("horizon %v: ALT h(%d) = %v exceeds exact-within %v", horizon, v, h, exact[v])
			}
		}
		if release != nil {
			release()
		}
	}
}

// requireSameRoute asserts the parts of two results that potentials may
// never change: the route, its probability and its distribution, all
// bit-for-bit. Telemetry is deliberately excluded — ALT bounds are
// weaker than exact potentials, so expansion and pruning counts differ.
func requireSameRoute(t *testing.T, label string, exact, alt *Result) {
	t.Helper()
	if exact.Found != alt.Found || exact.Complete != alt.Complete {
		t.Fatalf("%s: found/complete %v/%v vs %v/%v", label, exact.Found, exact.Complete, alt.Found, alt.Complete)
	}
	if exact.Prob != alt.Prob {
		t.Fatalf("%s: prob %v vs %v (not bit-equal)", label, exact.Prob, alt.Prob)
	}
	if len(exact.Path) != len(alt.Path) {
		t.Fatalf("%s: path lengths %d vs %d", label, len(exact.Path), len(alt.Path))
	}
	for i := range exact.Path {
		if exact.Path[i] != alt.Path[i] {
			t.Fatalf("%s: path[%d] = %d vs %d", label, i, exact.Path[i], alt.Path[i])
		}
	}
	if (exact.Dist == nil) != (alt.Dist == nil) {
		t.Fatalf("%s: dist nil mismatch", label)
	}
	if exact.Dist != nil {
		if exact.Dist.Min != alt.Dist.Min || exact.Dist.Width != alt.Dist.Width || len(exact.Dist.P) != len(alt.Dist.P) {
			t.Fatalf("%s: dist shape mismatch", label)
		}
		for i := range exact.Dist.P {
			if exact.Dist.P[i] != alt.Dist.P[i] {
				t.Fatalf("%s: dist P[%d] %v vs %v", label, i, exact.Dist.P[i], alt.Dist.P[i])
			}
		}
	}
	if len(exact.SliceSeq) != len(alt.SliceSeq) {
		t.Fatalf("%s: slice seq lengths %d vs %d", label, len(exact.SliceSeq), len(alt.SliceSeq))
	}
	for i := range exact.SliceSeq {
		if exact.SliceSeq[i] != alt.SliceSeq[i] {
			t.Fatalf("%s: sliceSeq[%d] = %d vs %d", label, i, exact.SliceSeq[i], alt.SliceSeq[i])
		}
	}
}

// TestPBRALTBitIdentity: swapping exact per-query potentials for ALT
// tables must not change what the search returns — only how fast it
// gets there.
func TestPBRALTBitIdentity(t *testing.T) {
	g, kb := testSubstrate(t)
	coster := &hybrid.ConvolutionCoster{KB: kb, MaxBuckets: 512}
	alt, err := BuildALT(g, kb.MinEdgeTime, SelectLandmarks(g, nil, 8))
	if err != nil {
		t.Fatal(err)
	}
	wg := netgen.NewWorkloadGen(g, 9)
	queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.2}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		_, optimistic, err := Dijkstra(g, kb.MinEdgeTime, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		budget := 1.3 * optimistic
		exact, err := PBR(g, coster, q.Source, q.Dest, Options{Budget: budget, maxFrontier: 128})
		if err != nil {
			t.Fatal(err)
		}
		withALT, err := PBR(g, coster, q.Source, q.Dest, Options{Budget: budget, maxFrontier: 128, Potentials: alt})
		if err != nil {
			t.Fatal(err)
		}
		requireSameRoute(t, "classic query "+string(rune('0'+qi)), exact, withALT)
	}
}

// testModelSet builds a 2-slice model set whose slices disagree (the
// second slice's trajectories run on a different seed), so
// time-expanded searches genuinely consult both models.
func testModelSet(t *testing.T) (*graph.Graph, *hybrid.ModelSet) {
	t.Helper()
	netCfg := netgen.DefaultConfig()
	netCfg.Rows, netCfg.Cols = 10, 10
	netCfg.CellMeters = 150
	g, err := netgen.Generate(netCfg)
	if err != nil {
		t.Fatal(err)
	}
	worldCfg := traj.DefaultWorldConfig()
	worldCfg.NoiseProb = 0
	world, err := traj.NewWorld(g, worldCfg)
	if err != nil {
		t.Fatal(err)
	}
	models := make([]*hybrid.Model, 2)
	for s := range models {
		trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
			NumTrajectories: 1200, MinEdges: 4, MaxEdges: 12, Seed: uint64(20 + s),
		})
		if err != nil {
			t.Fatal(err)
		}
		obs := traj.NewObservationStore(g, worldCfg.BucketWidth)
		obs.Collect(trajs)
		kb, err := hybrid.BuildKnowledgeBase(g, obs, worldCfg.BucketWidth, 10)
		if err != nil {
			t.Fatal(err)
		}
		models[s] = &hybrid.Model{KB: kb, MaxBuckets: 512}
	}
	set, err := hybrid.NewModelSet(models)
	if err != nil {
		t.Fatal(err)
	}
	return g, set
}

// TestPBRALTTimeExpandedBitIdentity: a time-expanded search with ALT
// tables built on the min-across-slices metric returns the same route,
// probability, distribution and slice sequence as exact potentials.
// Departures sit just before the slice boundary so trips cross it.
func TestPBRALTTimeExpandedBitIdentity(t *testing.T) {
	g, set := testModelSet(t)
	alt, err := BuildALT(g, set.MinEdgeTimeAcrossSlices, SelectLandmarks(g, nil, 8))
	if err != nil {
		t.Fatal(err)
	}
	wg := netgen.NewWorkloadGen(g, 13)
	queries, err := wg.SampleCategory(netgen.DistanceCategory{LoKm: 0.3, HiKm: 1.2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// With K=2 the boundary is at 43200s; depart 50s before it so any
	// trip longer than 50s transitions models mid-search.
	const depart = 43150.0
	minAcross := func(e graph.EdgeID) float64 { return set.MinEdgeTimeAcrossSlices(e) }
	for qi, q := range queries {
		_, optimistic, err := Dijkstra(g, minAcross, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			Budget:       1.3 * optimistic,
			Departure:    depart,
			TimeExpanded: true,
			maxFrontier:  128,
		}
		exact, err := PBR(g, set.TimeExpandedCoster(depart, nil), q.Source, q.Dest, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Potentials = alt
		withALT, err := PBR(g, set.TimeExpandedCoster(depart, nil), q.Source, q.Dest, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.SliceSeq) == 0 {
			t.Fatalf("query %d: time-expanded search produced no slice sequence", qi)
		}
		requireSameRoute(t, "time-expanded query "+string(rune('0'+qi)), exact, withALT)
	}
}

// unitCoster assigns every edge the same single-bucket distribution; it
// exists so unreachability tests need no trained model.
type unitCoster struct{ w float64 }

func (u unitCoster) InitialHistInto(s *hybrid.Scratch, _ graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(hist.New(u.w, u.w, []float64{1}))
}
func (u unitCoster) ExtendInto(s *hybrid.Scratch, v *hist.Hist, _, _ graph.EdgeID) *hist.Hist {
	return s.Arena.CloneHist(hist.New(v.Min+u.w, u.w, v.P))
}
func (u unitCoster) MinEdgeTime(graph.EdgeID) float64 { return u.w }
func (u unitCoster) Width() float64                   { return u.w }

// TestPBRALTUnreachableParity: with an unreachable destination, exact
// potentials prove it up front (h(source) = +Inf) and return
// ErrUnreachable. ALT must match whether its landmarks can prove the
// same (a landmark in the destination's component yields an infinite
// bound) or not (the search drains a complete queue without a pivot).
func TestPBRALTUnreachableParity(t *testing.T) {
	b := graph.NewBuilder(4, 4)
	p := func(lat, lon float64) geo.Point { return geo.Point{Lat: lat, Lon: lon} }
	a0 := b.AddVertex(p(0, 0))
	a1 := b.AddVertex(p(0, 0.001))
	c0 := b.AddVertex(p(0.01, 0))
	c1 := b.AddVertex(p(0.01, 0.001))
	for _, pair := range [][2]graph.VertexID{{a0, a1}, {c0, c1}} {
		if _, _, err := b.AddBidirectional(graph.Edge{From: pair[0], To: pair[1]}); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	coster := unitCoster{w: 10}

	if _, err := PBR(g, coster, a0, c1, Options{Budget: 1000}); err != ErrUnreachable {
		t.Fatalf("exact potentials: err = %v, want ErrUnreachable", err)
	}
	for _, tc := range []struct {
		name      string
		landmarks []graph.VertexID
	}{
		{"landmark-proves-it", []graph.VertexID{c0}},
		{"search-drains", []graph.VertexID{a0}},
	} {
		alt, err := BuildALT(g, coster.MinEdgeTime, tc.landmarks)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PBR(g, coster, a0, c1, Options{Budget: 1000, Potentials: alt}); err != ErrUnreachable {
			t.Fatalf("%s: err = %v, want ErrUnreachable", tc.name, err)
		}
		// Reachable queries still succeed with the same tables.
		res, err := PBR(g, coster, a0, a1, Options{Budget: 1000, Potentials: alt})
		if err != nil || !res.Found {
			t.Fatalf("%s: reachable query failed: %v", tc.name, err)
		}
	}
}

// BenchmarkBuildALT builds one table of 8 landmarks on a 60 × 60 grid
// (3 600 vertices, the city fixture's size) under free-flow weights: 16
// sweeps, which -cpu 1,2 shows spread over the cores. table-B is the
// tables' TableBytes.
func BenchmarkBuildALT(b *testing.B) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 60, 60
	g, err := netgen.Generate(ncfg)
	if err != nil {
		b.Fatal(err)
	}
	lms := SelectLandmarks(g, nil, 8)
	w := func(e graph.EdgeID) float64 { return g.Edge(e).FreeFlowSeconds() }
	var alt *ALT
	b.ReportAllocs()
	for b.Loop() {
		if alt, err = BuildALT(g, w, lms); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(alt.TableBytes()), "table-B")
}

// randomWeightedGraph is a random directed graph of n vertices and about
// 3n edges, each with a random multiplier k in [1, 300]; one edge is the
// closed edge the metrics built on it give +Inf.
func randomWeightedGraph(r *rng.RNG, n int) (g *graph.Graph, k []int, closed graph.EdgeID) {
	b := graph.NewBuilder(n, 3*n)
	for v := 0; v < n; v++ {
		b.AddVertex(geo.Point{Lat: 0.01 * r.Float64(), Lon: 0.01 * r.Float64()})
	}
	for b.NumVertices() > 1 && len(k) < 3*n {
		from, to := graph.VertexID(r.Intn(n)), graph.VertexID(r.Intn(n))
		if from == to {
			continue
		}
		if _, err := b.AddEdge(graph.Edge{From: from, To: to}); err != nil {
			panic(err)
		}
		k = append(k, 1+r.Intn(300))
	}
	return b.Build(), k, graph.EdgeID(r.Intn(len(k)))
}

// TestALTFloat32Admissible: on random graphs whose weights (k/3, k·0.1)
// no float32 holds, the rounded tables' potentials, less twice their
// slack, stay below the exact ones for every vertex and destination,
// with 1, 4 and 8 landmarks and a closed edge. The same graphs under
// integer weights (2k) round nothing: slack is 0.
func TestALTFloat32Admissible(t *testing.T) {
	r := rng.New(2801)
	rounded := 0
	for trial := 0; trial < 12; trial++ {
		g, k, closed := randomWeightedGraph(r, 2+r.Intn(39))
		nonDyadic := func(e graph.EdgeID) float64 {
			switch {
			case e == closed:
				return math.Inf(1)
			case e%2 == 0:
				return float64(k[e]) / 3
			}
			return float64(k[e]) * 0.1
		}
		integer := func(e graph.EdgeID) float64 {
			if e == closed {
				return math.Inf(1)
			}
			return float64(2 * k[e])
		}
		for _, l := range []int{1, 4, 8} {
			lms := SelectLandmarks(g, nil, l)
			for name, w := range map[string]WeightFunc{"non-dyadic": nonDyadic, "integer": integer} {
				alt, err := BuildALT(g, w, lms)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case name == "integer" && alt.slack != 0:
					t.Fatalf("trial %d, L %d: integer weights rounded, slack %v", trial, l, alt.slack)
				case alt.slack > 0:
					rounded++
				}
				for dest := range g.NumVertices() {
					exact := exactPotentials(g, w, graph.VertexID(dest))
					fn, release := alt.Potentials(graph.VertexID(dest))
					for v := range g.NumVertices() {
						h := fn(graph.VertexID(v))
						if h < 0 || math.IsNaN(h) {
							t.Fatalf("trial %d, %s, L %d, dest %d: h(%d) = %v", trial, name, l, dest, v, h)
						}
						if !math.IsInf(exact[v], 1) && h > exact[v]+1e-9 {
							t.Fatalf("trial %d, %s, L %d, dest %d: h(%d) = %v exceeds exact %v (slack %v)",
								trial, name, l, dest, v, h, exact[v], alt.slack)
						}
					}
					release()
				}
			}
		}
	}
	if rounded == 0 {
		t.Fatal("no non-dyadic table rounded an entry; the test checks nothing the float64 tables did not")
	}
}

// float64Bound is the ALT bound over float64 tables, the formula the
// float32 tables replaced: from[i] and to[i] are landmark i's forward and
// backward distances.
func float64Bound(from, to [][]float64, v, dest graph.VertexID) float64 {
	h := 0.0
	for i := range from {
		if b := to[i][v] - to[i][dest]; b > h {
			h = b
		}
		if b := from[i][dest] - from[i][v]; b > h {
			h = b
		}
	}
	return h
}

// TestALTFloat32MatchesFloat64: on the goldens' substrate every distance
// is a sum of grid-aligned minimum times, which float32 holds exactly, so
// slack is 0 and every potential — on a slice's own metric and on the
// min-across-slices one — is == the float64 tables' bound.
func TestALTFloat32MatchesFloat64(t *testing.T) {
	f := trainedFixture(t)
	g, n := f.g, f.g.NumVertices()
	lms := SelectLandmarks(g, nil, 8)
	for name, w := range map[string]WeightFunc{
		"slice metric":      f.set.At(1).MinEdgeTime,
		"min across slices": f.set.MinEdgeTimeAcrossSlices,
	} {
		alt, err := BuildALT(g, w, lms)
		if err != nil {
			t.Fatal(err)
		}
		if alt.slack != 0 {
			t.Fatalf("%s: slack %v on a grid-aligned metric", name, alt.slack)
		}
		weights := make([]float64, g.NumEdges())
		for e := range weights {
			weights[e] = w(graph.EdgeID(e))
		}
		from, to := make([][]float64, len(lms)), make([][]float64, len(lms))
		for i, lm := range lms {
			from[i], to[i] = make([]float64, n), make([]float64, n)
			landmarkSweep(g, weights, lm, false, from[i], pqueue.NewIndexedHeap(n))
			landmarkSweep(g, weights, lm, true, to[i], pqueue.NewIndexedHeap(n))
		}
		for _, dest := range []graph.VertexID{0, graph.VertexID(n / 2), graph.VertexID(n - 1)} {
			fn, release := alt.Potentials(dest)
			for v := range graph.VertexID(n) {
				if got, want := fn(v), float64Bound(from, to, v, dest); got != want {
					t.Fatalf("%s, dest %d: h(%d) = %v, float64 tables %v", name, dest, v, got, want)
				}
			}
			release()
		}
	}
}

// TestBuildALTOverflow: a finite distance float32 cannot hold fails the
// build, naming the lowest landmark sweep that met it, on any number of
// workers; it never becomes a +Inf that would read as unreachable.
func TestBuildALTOverflow(t *testing.T) {
	b := graph.NewBuilder(3, 4)
	var vs [3]graph.VertexID
	for i := range vs {
		vs[i] = b.AddVertex(geo.Point{Lat: 0, Lon: 0.001 * float64(i)})
	}
	for i := 0; i < 2; i++ {
		if _, _, err := b.AddBidirectional(graph.Edge{From: vs[i], To: vs[i+1]}); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	w := func(graph.EdgeID) float64 { return 2e38 } // two hops pass MaxFloat32
	const want = "routing: distance 4e+38 between landmark 0 and vertex 2 exceeds float32 range"
	for _, procs := range []int{1, 4} {
		if _, err := buildALTAt(procs, g, w, []graph.VertexID{vs[0], vs[2]}); err == nil || err.Error() != want {
			t.Errorf("GOMAXPROCS %d: err = %v, want %q", procs, err, want)
		}
	}
	if _, err := BuildALT(g, w, []graph.VertexID{vs[1]}); err != nil {
		t.Errorf("one hop from the middle vertex is within range: %v", err)
	}
}

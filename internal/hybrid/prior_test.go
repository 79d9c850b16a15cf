package hybrid

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hist"
	"stochroute/internal/israce"
	"stochroute/internal/netgen"
	"stochroute/internal/rng"
	"stochroute/internal/stats"
	"stochroute/internal/traj"
)

// referenceScaledHist is the projection priorTable.project replaced: one
// accumulator per grid index in a map, a fresh histogram per call. The
// table must return its bits.
func referenceScaledHist(p *ratioProfile, freeFlow, width float64) *hist.Hist {
	if freeFlow <= 0 {
		freeFlow = width
	}
	masses := make(map[int]float64)
	lo, hi := math.MaxInt32, math.MinInt32
	for i, m := range p.mass {
		if m == 0 {
			continue
		}
		ratio := ratioGridMin + float64(i)*ratioGridStep
		t := math.Max(width, math.Round(ratio*freeFlow/width)*width)
		idx := int(math.Round(t / width))
		masses[idx] += m
		if idx < lo {
			lo = idx
		}
		if idx > hi {
			hi = idx
		}
	}
	if len(masses) == 0 {
		return hist.Delta(math.Max(width, freeFlow), width)
	}
	out := make([]float64, hi-lo+1)
	for idx, m := range masses {
		out[idx-lo] = m
	}
	return hist.New(float64(lo)*width, width, out).Normalize()
}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

func TestPriorTableMatchesReference(t *testing.T) {
	r := rng.New(2201)
	profiles := map[string]*ratioProfile{"empty": newRatioProfile()}
	one := newRatioProfile()
	one.add(1.25, 3)
	profiles["one bucket"] = one
	tail := newRatioProfile()
	tail.add(ratioGridMax+4, 0.7)
	tail.add(ratioGridMax+0.01, 0.3)
	profiles["clamped tail"] = tail
	ends := newRatioProfile()
	ends.add(0, 1)
	ends.add(100, 2)
	profiles["both clamps"] = ends
	for k := 0; k < 6; k++ {
		p := newRatioProfile()
		// Sparse to full occupancy, weights spanning several decades so
		// the order of addition shows in the low bits.
		for i, n := 0, 1+r.Intn(4*len(p.mass)); i < n; i++ {
			p.add(ratioGridMin+r.Float64()*(ratioGridMax-ratioGridMin), math.Exp(8*r.Float64()-4))
		}
		profiles[fmt.Sprintf("random %d", k)] = p
	}

	for _, width := range []float64{1, 2, 2.5} {
		ffs := []float64{0, -3, 0.04 * width, 0.3 * width, width, 7 * width, 40 * width, 1234.5678}
		for i := 0; i < 8; i++ {
			// A free-flow time that puts some ratio bucket's projection
			// on a rounding boundary, and its neighbours 1e-9 away.
			ratio := ratioGridMin + float64(r.Intn(100))*ratioGridStep
			edge := (float64(1+r.Intn(60)) + 0.5) * width / ratio
			ffs = append(ffs, edge, edge-1e-9, edge+1e-9)
		}
		for i := 0; i < 20; i++ {
			ffs = append(ffs, 200*r.Float64())
		}
		// One table across every profile, as in a build: content that
		// collides must be content that is equal.
		table := newPriorTable(width)
		for name, p := range profiles {
			for _, ff := range ffs {
				want := referenceScaledHist(p, ff, width)
				got := table.stats[table.project(p, ff)]
				label := fmt.Sprintf("%s, width %v, free-flow %v", name, width, ff)
				distsBitEqual(t, label, got.Marginal, want)
				if bitsDiffer(got.MinTime, want.Min) || bitsDiffer(got.Mean, want.Mean()) || bitsDiffer(got.Std, want.Std()) || got.Count != 0 {
					t.Errorf("%s: stats (%v, %v, %v, %d), want (%v, %v, %v, 0)", label, got.MinTime, got.Mean, got.Std, got.Count, want.Min, want.Mean(), want.Std())
				}
				// An empty profile is a Delta at the free-flow time, which
				// nothing can share.
				if again := table.stats[table.project(p, ff)]; again.Marginal != got.Marginal && name != "empty" {
					t.Errorf("%s: a second projection returned a different histogram", label)
				}
			}
		}
		if len(table.byKey) >= len(profiles)*len(ffs) {
			t.Errorf("width %v: %d entries for %d projections; nothing was shared", width, len(table.byKey), len(profiles)*len(ffs))
		}
	}
}

// goldenConfigs is the substrate under the PBR goldens
// (internal/routing/golden_test.go), whose float bits pin the knowledge
// base from the far side.
func goldenConfigs(t testing.TB) (netgen.Config, traj.WorldConfig, traj.WalkConfig) {
	t.Helper()
	const slices = 4
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 14, 14
	ncfg.CellMeters = 130
	ncfg.Seed = 77
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 78
	var err error
	if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, slices, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	return ncfg, wcfg, traj.WalkConfig{
		NumTrajectories: 8000, MinEdges: 4, MaxEdges: 20, Seed: 79,
		RouteFraction: 0.7, NumRoutes: 150, RouteJitter: 0.25,
		Slices: slices,
	}
}

// goldenSubstrate rebuilds the graph and per-slice stores under the PBR
// goldens.
func goldenSubstrate(t testing.TB) (*graph.Graph, []*traj.ObservationStore, float64) {
	t.Helper()
	ncfg, wcfg, walk := goldenConfigs(t)
	return observedSubstrate(t, ncfg, wcfg, walk)
}

// sparseSubstrate is a network nobody has driven most of: more than
// nine edges in ten have no observation, so their marginals are priors.
func sparseSubstrate(t testing.TB) (*graph.Graph, *traj.ObservationStore, float64) {
	t.Helper()
	ncfg, wcfg, walk := sparseWalkConfigs()
	g, stores, width := observedSubstrate(t, ncfg, wcfg, walk)
	return g, stores[0], width
}

func sparseConfigs() (netgen.Config, traj.WorldConfig) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 110, 110
	ncfg.Seed = 31
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 32
	return ncfg, wcfg
}

func sparseWalkConfigs() (netgen.Config, traj.WorldConfig, traj.WalkConfig) {
	ncfg, wcfg := sparseConfigs()
	return ncfg, wcfg, traj.WalkConfig{NumTrajectories: 300, MinEdges: 4, MaxEdges: 14, Seed: 33, Slices: 1}
}

// cityConfigs is the city benchmark fixture's shape: 6 000 default walks
// on a 60 x 60 grid.
func cityConfigs() (netgen.Config, traj.WorldConfig, traj.WalkConfig) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 60, 60
	walk := traj.DefaultWalkConfig()
	walk.NumTrajectories = 6000
	return ncfg, traj.DefaultWorldConfig(), walk
}

func observedSubstrate(t testing.TB, ncfg netgen.Config, wcfg traj.WorldConfig, walk traj.WalkConfig) (*graph.Graph, []*traj.ObservationStore, float64) {
	t.Helper()
	g, trajs := walkedSubstrate(t, ncfg, wcfg, walk)
	return g, traj.CollectSlices(g, wcfg.BucketWidth, walk.Slices, trajs), wcfg.BucketWidth
}

// walkedSubstrate is the part of observedSubstrate before the stores: a
// generated network and the trajectories simulated over it.
func walkedSubstrate(t testing.TB, ncfg netgen.Config, wcfg traj.WorldConfig, walk traj.WalkConfig) (*graph.Graph, []traj.Trajectory) {
	t.Helper()
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trajs, err := traj.GenerateTrajectories(world, walk)
	if err != nil {
		t.Fatal(err)
	}
	return g, trajs
}

// samplePipeline is the reference the knowledge base and the store's
// readers are checked against: the sample lists the store replaced, read
// by the code that read them — hist.FromSamples, stats.Pearson, mode
// clusters over sorted sample values.
type samplePipeline struct {
	g     *graph.Graph
	width float64
	edge  map[graph.EdgeID][]float64
	pairs map[traj.PairKey][][2]float64
}

func newSamplePipeline(g *graph.Graph, width float64, trs []traj.Trajectory) *samplePipeline {
	r := &samplePipeline{g: g, width: width, edge: map[graph.EdgeID][]float64{}, pairs: map[traj.PairKey][][2]float64{}}
	for i := range trs {
		tr := &trs[i]
		for j, e := range tr.Edges {
			r.edge[e] = append(r.edge[e], tr.Times[j])
			if j > 0 {
				k := traj.PairKey{First: tr.Edges[j-1], Second: e}
				r.pairs[k] = append(r.pairs[k], [2]float64{tr.Times[j-1], tr.Times[j]})
			}
		}
	}
	return r
}

// ratioProfiles is pass 1 of BuildKnowledgeBase over sample lists.
func (r *samplePipeline) ratioProfiles() (func(graph.RoadCategory) *ratioProfile, float64) {
	global := newRatioProfile()
	byCat := make([]*ratioProfile, graph.NumRoadCategories)
	for c := range byCat {
		byCat[c] = newRatioProfile()
	}
	ratioSum, ratioN := 0.0, 0
	for e := 0; e < r.g.NumEdges(); e++ {
		samples := r.edge[graph.EdgeID(e)]
		ed := r.g.Edge(graph.EdgeID(e))
		ff := ed.FreeFlowSeconds()
		if len(samples) == 0 || ff <= 0 {
			continue
		}
		inc := 1 / float64(len(samples))
		mean := 0.0
		catProfile := global
		if int(ed.Category) < len(byCat) {
			catProfile = byCat[ed.Category]
		}
		for _, s := range samples {
			global.add(s/ff, inc)
			catProfile.add(s/ff, inc)
			mean += s
		}
		ratioSum += mean / float64(len(samples)) / ff
		ratioN++
	}
	fallback := 1.3
	if ratioN > 0 {
		fallback = ratioSum / float64(ratioN)
	}
	if global.total == 0 {
		global.add(fallback*0.85, 0.55)
		global.add(fallback, 0.3)
		global.add(fallback*1.3, 0.15)
	}
	return func(cat graph.RoadCategory) *ratioProfile {
		if int(cat) < len(byCat) && byCat[cat].total >= 25 {
			return byCat[cat]
		}
		return global
	}, fallback
}

// edgeStats is pass 2 of BuildKnowledgeBase over sample lists, every
// edge projecting its own prior.
func (r *samplePipeline) edgeStats(t *testing.T) []EdgeStats {
	t.Helper()
	profileFor, _ := r.ratioProfiles()
	out := make([]EdgeStats, r.g.NumEdges())
	for e := range out {
		ed := r.g.Edge(graph.EdgeID(e))
		marginal := referenceScaledHist(profileFor(ed.Category), ed.FreeFlowSeconds(), r.width)
		samples := r.edge[graph.EdgeID(e)]
		if n := float64(len(samples)); n > 0 {
			empirical, err := hist.FromSamples(samples, r.width)
			if err != nil {
				t.Fatal(err)
			}
			marginal, err = hist.Mixture(
				[]*hist.Hist{empirical, marginal},
				[]float64{n / (n + ShrinkageK), ShrinkageK / (n + ShrinkageK)},
			)
			if err != nil {
				t.Fatal(err)
			}
			marginal = marginal.Trim()
		}
		out[e] = EdgeStats{Marginal: marginal, MinTime: marginal.Min, Mean: marginal.Mean(), Std: marginal.Std(), Count: len(samples)}
	}
	return out
}

// clusters groups sample values into up to maxClusters clusters
// separated by gaps wider than 1.5 grid steps, keeping the widest cuts.
func (r *samplePipeline) clusters(samples []float64, maxClusters int) (func(float64) int, int) {
	uniq := slices.Compact(slices.Sorted(slices.Values(samples)))
	type gap struct{ after, size float64 }
	var gaps []gap
	for i := 1; i < len(uniq); i++ {
		if d := uniq[i] - uniq[i-1]; d > 1.5*r.width {
			gaps = append(gaps, gap{after: uniq[i-1], size: d})
		}
	}
	if len(gaps) == 0 {
		return func(float64) int { return 0 }, 1
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].size > gaps[j].size })
	if len(gaps) > maxClusters-1 {
		gaps = gaps[:maxClusters-1]
	}
	cuts := make([]float64, len(gaps))
	for i, g := range gaps {
		cuts[i] = g.after
	}
	sort.Float64s(cuts)
	return func(x float64) int { return sort.SearchFloat64s(cuts, x) }, len(cuts) + 1
}

// table is the pair's contingency table over three mode clusters a
// side, one Add per joint sample.
func (r *samplePipeline) table(k traj.PairKey) *stats.ContingencyTable {
	var t1, t2 []float64
	for _, o := range r.pairs[k] {
		t1, t2 = append(t1, o[0]), append(t2, o[1])
	}
	b1, n1 := r.clusters(t1, 3)
	b2, n2 := r.clusters(t2, 3)
	table := stats.NewContingencyTable(n1, n2)
	for i := range t1 {
		table.Add(b1(t1[i]), b2(t2[i]), 1)
	}
	return table
}

// estimatorRow is buildEstimatorDataset's target row over sample lists.
func (r *samplePipeline) estimatorRow(kb *KnowledgeBase, k traj.PairKey, cfg EstimatorConfig) []float64 {
	row := make([]float64, cfg.Bands*cfg.CondBuckets)
	marg1, base2 := kb.Edge(k.First).Marginal, kb.Edge(k.Second).MinTime
	for _, o := range r.pairs[k] {
		b := BandOfValue(marg1, o[0], cfg.Bands)
		off := min(max(int((o[1]-base2)/kb.Width+0.5), 0), cfg.CondBuckets-1)
		row[b*cfg.CondBuckets+off]++
	}
	for j := range row {
		row[j] /= float64(len(r.pairs[k]))
	}
	return row
}

// checkAgainstReference builds the knowledge base of obs, the store of
// trs, and compares it and the store's readers with the sample-list
// reference: every edge's statistics, FallbackFactor, every pair's
// table entry (its PValue the reference's chi-square p-value, or 1 where
// the test errors), chi-square result, mutual information and pair-sum
// histogram, and the estimator's target rows bit for bit; correlations
// within 1e-12 of Pearson over the samples, and bit for bit with Pearson
// over the cells expanded in cell order. It returns the knowledge base
// with the number of unobserved edges and of pointer-distinct marginals
// among them.
func checkAgainstReference(t *testing.T, label string, g *graph.Graph, obs *traj.ObservationStore, trs []traj.Trajectory) (kb *KnowledgeBase, unobserved, distinctPriors int) {
	t.Helper()
	const minPairObs = 10
	kb, err := BuildKnowledgeBase(g, obs, obs.Width, minPairObs)
	if err != nil {
		t.Fatal(err)
	}
	ref := newSamplePipeline(g, obs.Width, trs)
	if _, fallback := ref.ratioProfiles(); bitsDiffer(kb.FallbackFactor, fallback) {
		t.Fatalf("%s: FallbackFactor %v, reference %v", label, kb.FallbackFactor, fallback)
	}
	priors := make(map[*hist.Hist]bool)
	for e, want := range ref.edgeStats(t) {
		got := kb.Edge(graph.EdgeID(e))
		distsBitEqual(t, fmt.Sprintf("%s edge %d", label, e), got.Marginal, want.Marginal)
		if bitsDiffer(got.MinTime, want.MinTime) || bitsDiffer(got.Mean, want.Mean) || bitsDiffer(got.Std, want.Std) || got.Count != want.Count {
			t.Fatalf("%s edge %d: stats (%v, %v, %v, %d), want (%v, %v, %v, %d)", label, e,
				got.MinTime, got.Mean, got.Std, got.Count, want.MinTime, want.Mean, want.Std, want.Count)
		}
		if kb.Edge(graph.EdgeID(e)).Marginal != got.Marginal {
			t.Fatalf("%s edge %d: two reads of Edge returned different marginal pointers", label, e)
		}
		if got.Count == 0 {
			unobserved++
			priors[got.Marginal] = true
		}
	}
	observed, edges, distinct := kb.EdgeCoverage()
	if observed != g.NumEdges()-unobserved || edges != g.NumEdges() || distinct != observed+len(priors) {
		t.Errorf("%s: EdgeCoverage = (%d, %d, %d), want (%d, %d, %d)", label,
			observed, edges, distinct, g.NumEdges()-unobserved, g.NumEdges(), g.NumEdges()-unobserved+len(priors))
	}
	// The statistics table holds the distinct entries and nothing else:
	// every entry is some edge's.
	if len(kb.stats) != distinct {
		t.Errorf("%s: %d statistics entries, %d distinct marginals", label, len(kb.stats), distinct)
	}
	referenced := make([]bool, len(kb.stats))
	for _, i := range kb.statOf {
		referenced[i] = true
	}
	if i := slices.Index(referenced, false); i >= 0 {
		t.Errorf("%s: statistics entry %d of %d is no edge's", label, i, len(kb.stats))
	}

	var tablePairs []traj.PairKey
	for k, samples := range ref.pairs {
		var t1, t2, sums []float64
		for _, o := range samples {
			t1, t2, sums = append(t1, o[0]), append(t2, o[1]), append(sums, o[0]+o[1])
		}
		table := ref.table(k)
		wantChi, wantMI, wantErr := stats.Independence(table)
		if got, err := obs.DependenceTest(k); got != wantChi || (err == nil) != (wantErr == nil) {
			t.Fatalf("%s pair %v: chi-square %+v (%v), reference %+v (%v)", label, k, got, err, wantChi, wantErr)
		}
		wantP := wantChi.PValue
		if wantErr != nil {
			wantP = 1
		}
		if p, mi := obs.PairDependence(k); bitsDiffer(p, wantP) || bitsDiffer(mi, wantMI) {
			t.Fatalf("%s pair %v: p-value %v, MI %v; reference %v, %v", label, k, p, mi, wantP, wantMI)
		}
		wantSum, err := hist.FromSamples(sums, obs.Width)
		if err != nil {
			t.Fatal(err)
		}
		gotSum, err := obs.PairSumHist(k)
		if err != nil {
			t.Fatal(err)
		}
		distsBitEqual(t, fmt.Sprintf("%s pair %v sum", label, k), gotSum, wantSum)
		wantCorr, corrErr := stats.Pearson(t1, t2)
		// Over the cells expanded in cell order, Pearson has
		// PairCorrelation's bits.
		var c1, c2 []float64
		for _, c := range obs.Joint(k) {
			for r := c.N; r > 0; r-- {
				c1, c2 = append(c1, float64(c.I1)*obs.Width), append(c2, float64(c.I2)*obs.Width)
			}
		}
		cellCorr, cellErr := stats.Pearson(c1, c2)
		if got, err := obs.PairCorrelation(k); bitsDiffer(got, cellCorr) || (err == nil) != (cellErr == nil) {
			t.Fatalf("%s pair %v: PairCorrelation %v (%v), Pearson over the cells %v (%v)", label, k, got, err, cellCorr, cellErr)
		}
		ps, inTable := kb.Pair(k.First, k.Second)
		if inTable != (len(samples) >= minPairObs) {
			t.Fatalf("%s pair %v with %d observations: in table %v", label, k, len(samples), inTable)
		}
		if !inTable {
			continue
		}
		tablePairs = append(tablePairs, k)
		if corrErr != nil {
			wantCorr = 0
		}
		if cellErr != nil {
			cellCorr = 0
		}
		if ps.Count != len(samples) || bitsDiffer(ps.MI, wantMI) || bitsDiffer(ps.PValue, wantP) ||
			math.Abs(ps.Corr-wantCorr) > 1e-12 || bitsDiffer(ps.Corr, cellCorr) {
			t.Fatalf("%s pair %v: %+v, reference count %d, MI %v, p-value %v, Pearson %v (%v over the cells)",
				label, k, ps, len(samples), wantMI, wantP, wantCorr, cellCorr)
		}
	}
	if kb.NumPairs() != len(tablePairs) {
		t.Fatalf("%s: %d pairs in the table, reference %d", label, kb.NumPairs(), len(tablePairs))
	}

	if len(tablePairs) > 0 {
		cfg := DefaultEstimatorConfig()
		_, y, err := buildEstimatorDataset(kb, obs, tablePairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range tablePairs {
			for j, want := range ref.estimatorRow(kb, k, cfg) {
				if got := y.Row(i)[j]; bitsDiffer(got, want) {
					t.Fatalf("%s pair %v: estimator target %d = %v, reference %v", label, k, j, got, want)
				}
			}
		}
	}
	return kb, unobserved, len(priors)
}

// TestKnowledgeBaseMatchesPerEdgeReference: the knowledge base and the
// store's readers are those of the sample lists the store replaced, on
// every slice of the goldens' substrate, on a city-shaped fixture and on
// a network most of which nobody drove.
func TestKnowledgeBaseMatchesPerEdgeReference(t *testing.T) {
	check := func(label string, ncfg netgen.Config, wcfg traj.WorldConfig, walk traj.WalkConfig) (g *graph.Graph, unobserved, distinct int) {
		g, trajs := walkedSubstrate(t, ncfg, wcfg, walk)
		stores := traj.CollectSlices(g, wcfg.BucketWidth, walk.Slices, trajs)
		for s, bucket := range traj.SplitBySlice(trajs, len(stores)) {
			_, u, d := checkAgainstReference(t, fmt.Sprintf("%s slice %d", label, s), g, stores[s], bucket)
			unobserved, distinct = unobserved+u, distinct+d
		}
		return g, unobserved, distinct
	}
	ncfg, wcfg, walk := goldenConfigs(t)
	check("golden", ncfg, wcfg, walk)
	ncfg, wcfg, walk = cityConfigs()
	check("city", ncfg, wcfg, walk)
	ncfg, wcfg, walk = sparseWalkConfigs()
	g, unobserved, distinct := check("sparse", ncfg, wcfg, walk)
	if 10*unobserved < 9*g.NumEdges() {
		t.Fatalf("sparse fixture: %d of %d edges unobserved, want at least 90%%", unobserved, g.NumEdges())
	}
	if 100*distinct > 2*unobserved {
		t.Errorf("sparse fixture: %d distinct marginals among %d unobserved edges, want at most 2%%", distinct, unobserved)
	}
}

// TestKnowledgeBaseIsAFunctionOfTheMultiset: the store keeps counts, so
// a knowledge base built from the trajectories in another order, or
// collected in two calls, is the same bit for bit — every edge's
// statistics and marginal, FallbackFactor and the pair table, layout
// included.
func TestKnowledgeBaseIsAFunctionOfTheMultiset(t *testing.T) {
	ncfg, wcfg, walk := goldenConfigs(t)
	g, trajs := walkedSubstrate(t, ncfg, wcfg, walk)
	width := wcfg.BucketWidth
	build := func(parts ...[]traj.Trajectory) *KnowledgeBase {
		obs := traj.NewObservationStore(g, width)
		for _, part := range parts {
			obs.Collect(part)
		}
		kb, err := BuildKnowledgeBase(g, obs, width, 10)
		if err != nil {
			t.Fatal(err)
		}
		return kb
	}
	want := build(trajs)
	permuted := slices.Clone(trajs)
	rng.New(41).Shuffle(len(permuted), func(i, j int) { permuted[i], permuted[j] = permuted[j], permuted[i] })
	for name, got := range map[string]*KnowledgeBase{
		"permuted":  build(permuted),
		"two calls": build(trajs[:3000], trajs[3000:]),
		"both":      build(permuted[5000:], permuted[:5000]),
	} {
		if !slices.Equal(got.statOf, want.statOf) || len(got.stats) != len(want.stats) {
			t.Fatalf("%s: statistics table layout differs", name)
		}
		for e := range want.statOf {
			a, b := got.Edge(graph.EdgeID(e)), want.Edge(graph.EdgeID(e))
			distsBitEqual(t, fmt.Sprintf("%s edge %d", name, e), a.Marginal, b.Marginal)
			if bitsDiffer(a.MinTime, b.MinTime) || bitsDiffer(a.Mean, b.Mean) || bitsDiffer(a.Std, b.Std) || a.Count != b.Count {
				t.Fatalf("%s edge %d: %+v, want %+v", name, e, a, b)
			}
		}
		if bitsDiffer(got.FallbackFactor, want.FallbackFactor) {
			t.Fatalf("%s: FallbackFactor %v, want %v", name, got.FallbackFactor, want.FallbackFactor)
		}
		if !slices.Equal(got.pairStart, want.pairStart) || !slices.Equal(got.pairSecond, want.pairSecond) {
			t.Fatalf("%s: pair table layout differs", name)
		}
		for i, ps := range got.pairStats {
			w := want.pairStats[i]
			if ps.Count != w.Count || bitsDiffer(ps.Corr, w.Corr) || bitsDiffer(ps.MI, w.MI) || bitsDiffer(ps.PValue, w.PValue) {
				t.Fatalf("%s: pair entry %d is %+v, want %+v", name, i, ps, w)
			}
		}
	}
}

// TestObservedEdgeAllocations bounds what pass 2 allocates for an edge
// with data: no per-edge prior, and no map to build one in (the map
// version read 11.1 on the same store). The marginal itself is built in
// scratch and kept in the knowledge base's two slabs; when it was a
// histogram of its own, with the empirical histogram and the mixture
// before it, this read 6.5.
func TestObservedEdgeAllocations(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	e := getEnv(t)
	width := e.kb.Width
	var trs []traj.Trajectory
	r := rng.New(5)
	for id := 0; id < e.g.NumEdges(); id++ {
		ff := e.g.Edge(graph.EdgeID(id)).FreeFlowSeconds()
		for i := 0; i < 12; i++ {
			trs = append(trs, traj.Trajectory{Edges: []graph.EdgeID{graph.EdgeID(id)}, Times: []float64{ff * (0.4 + 4.6*r.Float64())}})
		}
	}
	obs := traj.NewObservationStore(e.g, width)
	obs.Collect(trs)
	perBuild := testing.AllocsPerRun(5, func() {
		if _, err := BuildKnowledgeBase(e.g, obs, width, 10); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 8
	if perEdge := perBuild / float64(e.g.NumEdges()); perEdge > ceiling {
		t.Errorf("%.1f allocations per observed edge, ceiling %d", perEdge, ceiling)
	}
}

// TestBuildKnowledgeBaseAllocationCeiling: a build allocates per
// distinct prior and per table it keeps, not per observed edge or per
// pair (10 344 allocations on this store when each marginal was its own
// histogram and each pair's cluster table was built on the heap; 773
// since).
func TestBuildKnowledgeBaseAllocationCeiling(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	g, stores, width := goldenSubstrate(t)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := BuildKnowledgeBase(g, stores[1], width, 10); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("BuildKnowledgeBase: %.0f allocations", allocs)
	if allocs > 1000 {
		t.Errorf("BuildKnowledgeBase made %.0f allocations, want <= 1000", allocs)
	}
}

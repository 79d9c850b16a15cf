package routing

import (
	"bufio"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/israce"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/pbr_golden.txt and testdata/pbr_work_golden.txt from the current search")

const (
	goldenFile     = "testdata/pbr_golden.txt"
	workGoldenFile = "testdata/pbr_work_golden.txt"
)

// goldenFixture is the frozen substrate of the PBR goldens: a 14×14
// grid, a 4-slice world whose slice 1 is peaked, and a trained hybrid
// model per slice (estimator + classifier, so extensions take the pair
// lookup → classifier → estimate path as well as convolution).
type goldenFixture struct {
	g       *graph.Graph
	set     *hybrid.ModelSet
	alt     *ALT
	queries []netgen.Query
}

var (
	goldenOnce sync.Once
	goldenFix  *goldenFixture
	goldenErr  error
)

const goldenSlices = 4

func goldenSetup(t testing.TB) *goldenFixture {
	t.Helper()
	// The table holds float bits of a model trained in-process; Go only
	// guarantees unfused multiply-adds (hence identical bits) on amd64.
	if runtime.GOARCH != "amd64" {
		t.Skip("PBR goldens are frozen for amd64 float arithmetic")
	}
	return trainedFixture(t)
}

// trainedFixture is the goldens' substrate for tests that do not compare
// float bits and so run on every architecture.
func trainedFixture(t testing.TB) *goldenFixture {
	t.Helper()
	goldenOnce.Do(func() { goldenFix, goldenErr = buildGoldenFixture() })
	if goldenErr != nil {
		t.Fatalf("golden fixture: %v", goldenErr)
	}
	return goldenFix
}

func buildGoldenFixture() (*goldenFixture, error) {
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 14, 14
	ncfg.CellMeters = 130
	ncfg.Seed = 77
	g, err := netgen.Generate(ncfg)
	if err != nil {
		return nil, err
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.Seed = 78
	wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, goldenSlices, 1, 0.6)
	if err != nil {
		return nil, err
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		return nil, err
	}
	trajs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 8000, MinEdges: 4, MaxEdges: 20, Seed: 79,
		RouteFraction: 0.7, NumRoutes: 150, RouteJitter: 0.25,
		Slices: goldenSlices,
	})
	if err != nil {
		return nil, err
	}
	cfg := hybrid.DefaultConfig()
	cfg.Width = wcfg.BucketWidth
	cfg.MinPairObs = 10
	cfg.TrainPairs, cfg.TestPairs = 300, 60
	cfg.Estimator.Hidden = []int{16}
	cfg.Estimator.Train.Epochs = 4
	cfg.PrefixRows = 300
	cfg.MaxBuckets = 256
	cfg.Slices = goldenSlices
	stores := traj.CollectSlices(g, cfg.Width, goldenSlices, trajs)
	set, _, err := hybrid.TrainSlices(g, stores, traj.SplitBySlice(trajs, goldenSlices), nil, cfg)
	if err != nil {
		return nil, err
	}
	alt, err := BuildALT(g, set.MinEdgeTimeAcrossSlices, SelectLandmarks(g, nil, 6))
	if err != nil {
		return nil, err
	}
	queries, err := netgen.NewWorkloadGen(g, 80).SampleCategory(netgen.DistanceCategory{LoKm: 0.6, HiKm: 1.6}, 64)
	if err != nil {
		return nil, err
	}
	return &goldenFixture{g: g, set: set, alt: alt, queries: queries}, nil
}

// goldenConfig is one search shape of the table. Every config runs over
// every query, classic (the slice-1 model, departure-slice routing) or
// time-expanded (departing a minute before a slice boundary so trips
// change models mid-search).
type goldenConfig struct {
	name     string
	expanded bool
	alt      bool
	seed     bool // SeedPath = mean-cost path, SwitchMargin 0.02
	tune     func(*Options)
}

// The ablations explode without their pruning; the deterministic
// anytime cutoff bounds them and puts MaxExpansions under the goldens.
const goldenAblationCap = 400

func goldenConfigs() []goldenConfig {
	shapes := []goldenConfig{
		{name: "default"},
		{name: "alt", alt: true},
		{name: "frontier1", tune: func(o *Options) { o.maxFrontier = 1 }},
		{name: "frontier2", tune: func(o *Options) { o.maxFrontier = 2 }},
		{name: "frontier8-alt", alt: true, tune: func(o *Options) { o.maxFrontier = 8 }},
		{name: "no-potential", tune: func(o *Options) { o.DisablePotentialPruning = true; o.MaxExpansions = goldenAblationCap }},
		{name: "no-pivot", tune: func(o *Options) { o.DisablePivotPruning = true; o.MaxExpansions = goldenAblationCap }},
		{name: "no-dominance", tune: func(o *Options) { o.DisableDominancePruning = true; o.MaxExpansions = goldenAblationCap }},
		{name: "seeded", seed: true},
		{name: "seeded-alt-frontier2", seed: true, alt: true, tune: func(o *Options) { o.maxFrontier = 2 }},
	}
	var out []goldenConfig
	for _, expanded := range []bool{false, true} {
		for _, s := range shapes {
			s.expanded = expanded
			if expanded {
				s.name = "expanded-" + s.name
			} else {
				s.name = "classic-" + s.name
			}
			out = append(out, s)
		}
	}
	return out
}

// goldenQuery assembles the coster and options of one (config, query)
// cell. A non-nil qs tallies the cell's convolve / estimate decisions.
func (f *goldenFixture) goldenQuery(cfg goldenConfig, qi int, qs *hybrid.QueryStats) (hybrid.Coster, graph.VertexID, graph.VertexID, Options, error) {
	q := f.queries[qi]
	const classicSlice = 1
	// Budgets around the mean-cost route's mean travel time put the
	// arrival probabilities mid-range, where every pruning has work.
	meanPath, meanTime, err := MeanCostPath(f.g, f.set.At(classicSlice).KB, q.Source, q.Dest)
	if err != nil {
		return nil, 0, 0, Options{}, err
	}
	opts := Options{Budget: []float64{0.9, 1, 1.15}[qi%3] * meanTime}
	var coster hybrid.Coster
	if cfg.expanded {
		// One minute before the peaked slice begins, or before it ends.
		opts.Departure = traj.SliceStart(1+qi%2, goldenSlices) - 60
		opts.TimeExpanded = true
		coster = f.set.TimeExpandedCoster(opts.Departure, qs)
	} else {
		opts.Departure = traj.SliceMid(classicSlice, goldenSlices)
		coster = f.set.At(classicSlice).WithStats(qs)
	}
	if cfg.alt {
		opts.Potentials = f.alt
	}
	if cfg.seed {
		opts.SeedPath = meanPath
		opts.SwitchMargin = 0.02
	}
	if cfg.tune != nil {
		cfg.tune(&opts)
	}
	return coster, q.Source, q.Dest, opts, nil
}

// goldenRow renders everything the table freezes about one search:
// route, float bits of probability and distribution, slice sequence
// and the five search counters.
func goldenRow(cfg goldenConfig, qi int, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s %d found=%t complete=%t prob=%016x", cfg.name, qi, res.Found, res.Complete, math.Float64bits(res.Prob))
	if res.Dist != nil {
		h := fnv.New64a()
		var buf [8]byte
		for _, p := range res.Dist.P {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
		fmt.Fprintf(&b, " min=%016x n=%d p=%016x", math.Float64bits(res.Dist.Min), len(res.Dist.P), h.Sum64())
	}
	b.WriteString(" path=")
	for i, e := range res.Path {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(int(e)))
	}
	b.WriteString(" slices=")
	for _, s := range res.SliceSeq {
		b.WriteString(strconv.Itoa(s))
	}
	fmt.Fprintf(&b, " exp=%d gen=%d pot=%d piv=%d dom=%d",
		res.Expansions, res.GeneratedLabels, res.PrunedPotential, res.PrunedPivot, res.PrunedDominance)
	return b.String()
}

func readGolden(t testing.TB) []string {
	t.Helper()
	fh, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/routing -run TestPBRGolden -update)", err)
	}
	defer fh.Close()
	var rows []string
	sc := bufio.NewScanner(fh)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		rows = append(rows, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestPBRGolden pins the search itself, not twin against twin: every
// (config, query) cell must reproduce the frozen route, probability
// and distribution bits, slice sequence and counters.
func TestPBRGolden(t *testing.T) {
	f := goldenSetup(t)
	configs := goldenConfigs()
	if *updateGolden {
		var out strings.Builder
		for _, cfg := range configs {
			for qi := range f.queries {
				row, err := f.answer(cfg, qi, PBR)
				if err != nil {
					t.Fatal(err)
				}
				out.WriteString(row)
				out.WriteByte('\n')
			}
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gt := loadGolden(t)
	for ci := range gt.configs {
		for qi := 0; qi < len(f.queries); qi += goldenStride() {
			if err := gt.check(ci, qi, PBR); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A fixture that only ever convolved (or only estimated) would leave
	// half of the cost model outside the goldens.
	var qs hybrid.QueryStats
	for qi := 0; qi < len(f.queries); qi += goldenStride() {
		c, src, dst, opts, err := f.goldenQuery(gt.configs[0], qi, &qs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := PBR(f.g, c, src, dst, opts); err != nil {
			t.Fatal(err)
		}
	}
	if qs.Convolved == 0 || qs.Estimated == 0 {
		t.Fatalf("fixture decisions %+v: want both", qs)
	}
}

// TestPBRWorkGolden freezes what the answers cost: per search shape, the
// extensions built — convolved and estimated — summed over the 64
// queries. The answer table cannot see work the search does and throws
// away; this one fails when such work comes back (or more of it goes).
// Rewritten by -update, like the answer table.
func TestPBRWorkGolden(t *testing.T) {
	if israce.Enabled {
		t.Skip("a single-goroutine replay of the whole table: nothing for the race detector, tenfold the time")
	}
	f := goldenSetup(t)
	var got strings.Builder
	for _, cfg := range goldenConfigs() {
		var qs hybrid.QueryStats
		for qi := range f.queries {
			c, src, dst, opts, err := f.goldenQuery(cfg, qi, &qs)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := PBR(f.g, c, src, dst, opts); err != nil {
				t.Fatalf("%s query %d: %v", cfg.name, qi, err)
			}
		}
		fmt.Fprintf(&got, "%s convolved=%d estimated=%d\n", cfg.name, qs.Convolved, qs.Estimated)
	}
	if *updateGolden {
		if err := os.WriteFile(workGoldenFile, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(workGoldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/routing -run TestPBRWorkGolden -update)", err)
	}
	if got.String() != string(want) {
		t.Fatalf("extensions built differ from %s:\n got\n%s want\n%s", workGoldenFile, got.String(), want)
	}
}

// goldenStride thins the query axis under the race detector, which
// slows a search tenfold and has nothing to find in a single-goroutine
// replay; the plain build checks every row.
func goldenStride() int {
	if israce.Enabled {
		return 4
	}
	return 1
}

// goldenTable is the fixture together with its frozen rows.
type goldenTable struct {
	*goldenFixture
	configs []goldenConfig
	want    []string
}

func loadGolden(t testing.TB) *goldenTable {
	t.Helper()
	gt := &goldenTable{goldenFixture: goldenSetup(t), configs: goldenConfigs(), want: readGolden(t)}
	if len(gt.want) != len(gt.configs)*len(gt.queries) {
		t.Fatalf("golden table has %d rows, want %d", len(gt.want), len(gt.configs)*len(gt.queries))
	}
	return gt
}

// searchFunc is the signature of PBR; tests substitute a search on a
// workspace of their own.
type searchFunc func(g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts Options) (*Result, error)

// answer runs cell (cfg, query qi) through search and renders the row.
func (f *goldenFixture) answer(cfg goldenConfig, qi int, search searchFunc) (string, error) {
	c, src, dst, opts, err := f.goldenQuery(cfg, qi, nil)
	if err != nil {
		return "", err
	}
	res, err := search(f.g, c, src, dst, opts)
	if err != nil {
		return "", fmt.Errorf("%s query %d: %w", cfg.name, qi, err)
	}
	return goldenRow(cfg, qi, res), nil
}

// check compares the answer to cell (config ci, query qi) with the
// frozen row.
func (gt *goldenTable) check(ci, qi int, search searchFunc) error {
	got, err := gt.answer(gt.configs[ci], qi, search)
	if err != nil {
		return err
	}
	if want := gt.want[ci*len(gt.queries)+qi]; got != want {
		return fmt.Errorf("\n got  %s\n want %s", got, want)
	}
	return nil
}

// TestWorkspaceReuseAcrossSearchShapes runs one workspace through a
// sequence of searches that differ in everything it retains — frontier
// cap, slice keying — and that outgrow its frontier table mid-search.
// Every answer must match the goldens, and a released workspace must
// hold no label distribution: those point into an arena that has been
// reset.
func TestWorkspaceReuseAcrossSearchShapes(t *testing.T) {
	gt := loadGolden(t)
	ws := new(workspace)
	grewMidSearch := false
	onWorkspace := func(g *graph.Graph, c hybrid.Coster, source, dest graph.VertexID, opts Options) (*Result, error) {
		before := len(ws.frontiers.slots)
		res, err := ws.search(context.Background(), g, c, source, dest, opts)
		if before > 0 && len(ws.frontiers.slots) > before {
			grewMidSearch = true
		}
		ws.release()
		for i, lb := range ws.labels[:cap(ws.labels)] {
			if lb.dist != nil {
				t.Fatalf("released workspace still references the distribution of label %d", i)
			}
		}
		return res, err
	}
	for qi := 0; qi < len(gt.queries); qi += 2 * goldenStride() {
		for ci, cfg := range gt.configs {
			switch strings.TrimPrefix(strings.TrimPrefix(cfg.name, "classic-"), "expanded-") {
			case "default", "frontier1", "frontier2", "frontier8-alt":
			default:
				continue
			}
			if err := gt.check(ci, qi, onWorkspace); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !grewMidSearch {
		t.Error("no search outgrew the frontier table it inherited; the fixture no longer covers mid-search growth")
	}
}

// TestPBRConcurrentSearchesMatchGoldens has several goroutines route
// at once through PBR, so pooled workspaces change hands between
// searches of different shapes while the cost models are shared. Every
// answer must still be the frozen one; run with -race -count=10.
func TestPBRConcurrentSearchesMatchGoldens(t *testing.T) {
	gt := loadGolden(t)
	const workers = 6
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Worker w takes every workers-th cell of a thinned table.
			for cell := w; cell < len(gt.want); cell += workers * 7 {
				ci, qi := cell/len(gt.queries), cell%len(gt.queries)
				if err := gt.check(ci, qi, PBR); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

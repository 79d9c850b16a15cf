package exp

import (
	"io"
	"math"
	"os"
	"sync"
	"testing"
)

// The Small setup is expensive enough to share across tests.
var (
	setupOnce sync.Once
	setupVal  *Setup
	setupErr  error
)

func smallSetup(t testing.TB) *Setup {
	t.Helper()
	setupOnce.Do(func() {
		w := io.Writer(io.Discard)
		if testing.Verbose() {
			w = os.Stderr
		}
		setupVal, setupErr = Build(Small, w)
	})
	if setupErr != nil {
		t.Fatalf("Build(Small): %v", setupErr)
	}
	return setupVal
}

func TestBuildSmallEndToEnd(t *testing.T) {
	s := smallSetup(t)
	g, rep := s.Engine.Graph(), s.Engine.Report
	if g.NumVertices() == 0 || g.NumEdges() == 0 {
		t.Fatalf("degenerate graph: %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if rep.TestPairs == 0 {
		t.Fatal("no test pairs evaluated")
	}
	t.Logf("KL hybrid=%.4f conv=%.4f estimate=%.4f (dependent: hybrid=%.4f conv=%.4f)",
		rep.MeanKLHybrid, rep.MeanKLConv, rep.MeanKLEstimate,
		rep.MeanKLHybridDep, rep.MeanKLConvDep)
	// The headline claim: the hybrid model beats convolution on KL to
	// ground truth, decisively so on dependent pairs.
	if rep.MeanKLHybrid >= rep.MeanKLConv {
		t.Errorf("hybrid KL %.4f should beat convolution KL %.4f",
			rep.MeanKLHybrid, rep.MeanKLConv)
	}
	if rep.MeanKLHybridDep >= rep.MeanKLConvDep {
		t.Errorf("on dependent pairs hybrid KL %.4f should beat convolution KL %.4f",
			rep.MeanKLHybridDep, rep.MeanKLConvDep)
	}
	if acc := rep.ClassifierConfusion.Accuracy(); acc < 0.7 {
		t.Errorf("classifier accuracy %.3f below 0.7", acc)
	}
}

func TestRunMotivating(t *testing.T) {
	r, err := RunMotivating(io.Discard)
	if err != nil {
		t.Fatalf("RunMotivating: %v", err)
	}
	const tol = 1e-9
	if math.Abs(r.ProbP1-0.9) > tol || math.Abs(r.ProbP2-0.8) > tol {
		t.Errorf("probabilities = %v, %v; paper says 0.9 and 0.8", r.ProbP1, r.ProbP2)
	}
	if math.Abs(r.MeanP1-53) > tol || math.Abs(r.MeanP2-51) > tol {
		t.Errorf("means = %v, %v; paper says 53 and 51", r.MeanP1, r.MeanP2)
	}
	if !r.MeanPicksP2 || !r.BudgetPicksP1 {
		t.Errorf("expected mean routing to pick P2 and budget routing to pick P1: %+v", r)
	}
}

func TestRunConvVsTruthWorkedExample(t *testing.T) {
	r, err := RunConvVsTruth(nil, io.Discard)
	if err != nil {
		t.Fatalf("RunConvVsTruth: %v", err)
	}
	// Convolution: {30:.25, 35:.5, 40:.25}.
	want := []float64{0.25, 0.5, 0.25}
	if r.Convolved.Min != 30 || len(r.Convolved.P) != 3 {
		t.Fatalf("convolved = %v, want support 30..40", r.Convolved)
	}
	for i, w := range want {
		if diff := r.Convolved.P[i] - w; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("convolved[%d] = %v, want %v", i, r.Convolved.P[i], w)
		}
	}
	if r.KLConvWorked <= 0 {
		t.Errorf("KL(truth||conv) = %v, want > 0", r.KLConvWorked)
	}
}

func TestRunDependence(t *testing.T) {
	s := smallSetup(t)
	r, err := RunDependence(s, 0.05, io.Discard)
	if err != nil {
		t.Fatalf("RunDependence: %v", err)
	}
	// The world is configured for ~75% dependent pairs; the chi-square
	// scan should land in a generous band around it.
	if r.DependentFrac < 0.5 || r.DependentFrac > 0.95 {
		t.Errorf("dependent fraction %.2f outside [0.5, 0.95]", r.DependentFrac)
	}
	if r.TestAccuracy < 0.7 {
		t.Errorf("chi-square test accuracy %.2f below 0.7", r.TestAccuracy)
	}
}

func TestRunQualityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("quality experiment is slow")
	}
	rows := smallTables(t).quality
	if len(rows) != len(Categories(Small)) {
		t.Fatalf("got %d rows, want %d", len(rows), len(Categories(Small)))
	}
	for _, row := range rows {
		// PBR optimises the model's on-time probability and is seeded
		// with the baseline path, so on average it must not lose more
		// than model-misranking noise.
		if row.Improvement[0] < -2 {
			t.Errorf("category %s: P∞ mean improvement %.1fpp too negative", row.Category, row.Improvement[0])
		}
		for i := range row.ImprovedFrac {
			if row.ImprovedFrac[i]+row.WorseFrac[i] > 1 {
				t.Errorf("category %s, limit %d: %.2f improved and %.2f worse add up past 1", row.Category, i, row.ImprovedFrac[i], row.WorseFrac[i])
			}
		}
		// Anytime quality is monotone within noise: P1 <= P10 <= P∞.
		const slack = 0.2 // fraction slack for small query counts
		if row.ImprovedFrac[1] > row.ImprovedFrac[3]+slack {
			t.Errorf("category %s: P1 frac %.2f > P10 frac %.2f", row.Category, row.ImprovedFrac[1], row.ImprovedFrac[3])
		}
		if row.ImprovedFrac[3] > row.ImprovedFrac[0]+slack {
			t.Errorf("category %s: P10 frac %.2f > P∞ frac %.2f", row.Category, row.ImprovedFrac[3], row.ImprovedFrac[0])
		}
	}
	// The improved fraction should not shrink with distance (paper:
	// 13% -> 53% -> 60%); generous slack at small query counts.
	if len(rows) >= 2 && rows[0].ImprovedFrac[0] > rows[len(rows)-1].ImprovedFrac[0]+0.34 {
		t.Errorf("improved fraction should grow with distance: first %.2f, last %.2f",
			rows[0].ImprovedFrac[0], rows[len(rows)-1].ImprovedFrac[0])
	}
}

func TestRunEfficiencyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("efficiency experiment is slow")
	}
	rows := smallTables(t).efficiency
	if len(rows) < 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Runtime grows with distance category.
	if rows[0].MeanExpansions > rows[len(rows)-1].MeanExpansions {
		t.Errorf("expansions should grow with distance: %v then %v",
			rows[0].MeanExpansions, rows[len(rows)-1].MeanExpansions)
	}
}

func TestRunAnytimeCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("anytime curve is slow")
	}
	points := smallTables(t).anytime
	if len(points) < 3 {
		t.Fatalf("got %d points", len(points))
	}
	// Quality is non-decreasing along the curve within noise, and the
	// unlimited point is at least as good as the tightest.
	first, last := points[0], points[len(points)-1]
	if last.MeanProb < first.MeanProb-0.02 {
		t.Errorf("unlimited quality %.3f below tightest %.3f", last.MeanProb, first.MeanProb)
	}
	if last.CompleteFrac < 0.99 {
		t.Errorf("unlimited sweeps should complete: %.2f", last.CompleteFrac)
	}
}

func TestRunAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation experiment is slow")
	}
	rows := smallTables(t).ablation
	byName := map[string]AblationRow{}
	for _, r := range rows {
		byName[r.Variant] = r
	}
	full := byName["full"]
	if full.Queries == 0 {
		t.Fatal("full variant ran no queries")
	}
	// Disabling pivot pruning must not reduce search effort.
	if noPivot := byName["no-pivot (b,c)"]; noPivot.MeanExpansions+1 < full.MeanExpansions {
		t.Errorf("no-pivot expansions %.0f < full %.0f", noPivot.MeanExpansions, full.MeanExpansions)
	}
}

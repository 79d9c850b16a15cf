package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"stochroute"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/traj"
)

// writeInputs simulates a k-slice day on a 9 × 9 grid and writes the
// network and trajectory files cmd/train reads into dir.
func writeInputs(t *testing.T, dir string, k int) (net, trips string) {
	t.Helper()
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 9, 9
	ncfg.CellMeters = 130
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	if k > 1 {
		if wcfg.SlicePriors, err = traj.PeakedSlicePriors(wcfg.ModePrior, k, 1, 0.6); err != nil {
			t.Fatal(err)
		}
	}
	world, err := traj.NewWorld(g, wcfg)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := traj.GenerateTrajectories(world, traj.WalkConfig{
		NumTrajectories: 1200 * k, MinEdges: 4, MaxEdges: 14, Seed: 5, Slices: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	net, trips = filepath.Join(dir, "net.srg"), filepath.Join(dir, "trips.srt")
	gf, err := os.Create(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteTo(gf); err != nil {
		t.Fatal(err)
	}
	if err := gf.Close(); err != nil {
		t.Fatal(err)
	}
	tf, err := os.Create(trips)
	if err != nil {
		t.Fatal(err)
	}
	if err := traj.WriteTrajectories(tf, trs); err != nil {
		t.Fatal(err)
	}
	if err := tf.Close(); err != nil {
		t.Fatal(err)
	}
	return net, trips
}

// TestRunWritesEngineModel runs the command on a 1-slice and a 2-slice
// input and checks that the file it writes is, byte for byte, what
// NewEngineFromObservations + SaveModel write for the same input and
// settings, and that it prints each slice's evaluation.
func TestRunWritesEngineModel(t *testing.T) {
	for _, k := range []int{1, 2} {
		dir := t.TempDir()
		net, trips := writeInputs(t, dir, k)
		out := filepath.Join(dir, "model.srhm")
		var stdout bytes.Buffer
		err := run([]string{"-net", net, "-traj", trips, "-out", out,
			"-train-pairs", "150", "-test-pairs", "40", "-min-obs", "6", "-epochs", "4",
			"-slices", fmt.Sprint(k)}, &stdout)
		if err != nil {
			t.Fatalf("slices=%d: %v", k, err)
		}

		g, err := stochroute.LoadGraph(net)
		if err != nil {
			t.Fatal(err)
		}
		tf, err := os.Open(trips)
		if err != nil {
			t.Fatal(err)
		}
		trs, err := traj.ReadTrajectoryStream(tf, g)
		tf.Close()
		if err != nil {
			t.Fatal(err)
		}
		cfg := hybrid.DefaultConfig()
		cfg.TrainPairs, cfg.TestPairs, cfg.MinPairObs, cfg.Slices = 150, 40, 6, k
		cfg.Estimator.Train.Epochs = 4
		eng, err := stochroute.NewEngineFromObservations(g, trs, cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		want := filepath.Join(dir, "want.srhm")
		if err := eng.SaveModel(want); err != nil {
			t.Fatal(err)
		}
		gotBytes, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, wantBytes) {
			t.Errorf("slices=%d: the command's model (%d B) differs from the engine's (%d B)", k, len(gotBytes), len(wantBytes))
		}

		text := stdout.String()
		for s, rep := range eng.Reports {
			for _, line := range []string{
				fmt.Sprintf("%d pairs with >= 6 observations\n", eng.SliceKnowledgeBase(s).NumPairs()),
				fmt.Sprintf("evaluation on %d held-out pairs (ground truth: empirical joint distributions):\n", rep.TestPairs),
				fmt.Sprintf("  KL(hybrid)        = %.4f\n", rep.MeanKLHybrid),
				fmt.Sprintf("  KL(convolution)   = %.4f\n", rep.MeanKLConv),
			} {
				if !strings.Contains(text, line) {
					t.Errorf("slices=%d: stdout lacks slice %d's %q:\n%s", k, s, line, text)
				}
			}
		}
		if k > 1 && !strings.Contains(text, "slice 1: ") {
			t.Errorf("slices=%d: stdout has no per-slice header:\n%s", k, text)
		}
		if last := fmt.Sprintf("wrote %s (%d slice(s))\n", out, k); !strings.HasSuffix(text, last) {
			t.Errorf("slices=%d: stdout does not end with %q:\n%s", k, last, text)
		}
	}
}

// TestRunRecipeServes trains through the command with a recipe that is
// not the default one, opens the file with stochroute.OpenEngine — as
// cmd/serve and cmd/route do, with no recipe flag of their own — and
// checks that the served engine is the trained one: the same knowledge
// base, 64 of 64 sampled q0.8 queries answered bit-identically, and the
// set's Recipe, which cmd/serve hands its ingestor's rebuilds, equal to
// the training config field by field. A caller that names a grid or a
// pair threshold the set was not trained on is refused.
func TestRunRecipeServes(t *testing.T) {
	dir := t.TempDir()
	net, trips := writeInputs(t, dir, 1)
	out := filepath.Join(dir, "model.srhm")
	if err := run([]string{"-net", net, "-traj", trips, "-out", out,
		"-min-obs", "6", "-train-pairs", "150", "-test-pairs", "40", "-epochs", "4"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	opened, trs, err := stochroute.OpenEngine(net, trips, out)
	if err != nil {
		t.Fatal(err)
	}
	cfg := hybrid.DefaultConfig()
	cfg.TrainPairs, cfg.TestPairs, cfg.MinPairObs, cfg.Slices = 150, 40, 6, 1
	cfg.Estimator.Train.Epochs = 4
	trained, err := stochroute.NewEngineFromObservations(opened.Graph(), trs, cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	if got, want := opened.SliceKnowledgeBase(0).NumPairs(), trained.SliceKnowledgeBase(0).NumPairs(); got != want {
		t.Errorf("the opened engine's knowledge base has %d pairs, the trained one's %d", got, want)
	}
	qs, err := trained.SampleQueries(0.3, 1.0, 64, 17)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for _, q := range qs {
		budget, err := trained.QuantileBudget(0, q.Source, q.Dest, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := trained.Route(q.Source, q.Dest, budget)
		if err != nil {
			t.Fatal(err)
		}
		got, err := opened.Route(q.Source, q.Dest, budget)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Prob) == math.Float64bits(want.Prob) && slices.Equal(got.Path, want.Path) {
			same++
		}
	}
	if same != len(qs) || len(qs) != 64 {
		t.Errorf("%d of %d q0.8 queries answered bit-identically, want 64 of 64", same, len(qs))
	}

	recipe, err := opened.ModelSet().Recipe()
	if err != nil {
		t.Fatal(err)
	}
	rv, cv := reflect.ValueOf(recipe), reflect.ValueOf(cfg)
	for i := 0; i < rv.NumField(); i++ {
		if name := rv.Type().Field(i).Name; !reflect.DeepEqual(rv.Field(i).Interface(), cv.Field(i).Interface()) {
			t.Errorf("recipe %s = %+v, trained with %+v", name, rv.Field(i).Interface(), cv.Field(i).Interface())
		}
	}

	for _, bad := range []struct {
		width  float64
		minObs int
	}{{cfg.Width, 20}, {2 * cfg.Width, cfg.MinPairObs}} {
		if _, err := stochroute.NewEngineWithModelSet(opened.Graph(), trs, bad.width, bad.minObs, opened.ModelSet()); err == nil {
			t.Errorf("NewEngineWithModelSet served the set at width %v, min obs %d", bad.width, bad.minObs)
		}
	}
}

// TestRunErrors: a bad width and a missing input come back as errors
// from run, not as exits.
func TestRunErrors(t *testing.T) {
	if err := run([]string{"-width", "0"}, io.Discard); err == nil {
		t.Error("-width 0 should error")
	}
	missing := filepath.Join(t.TempDir(), "absent.srg")
	if err := run([]string{"-net", missing}, io.Discard); err == nil {
		t.Error("missing network file should error")
	}
}

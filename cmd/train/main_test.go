package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

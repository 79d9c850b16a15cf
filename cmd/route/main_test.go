package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"stochroute"
	"stochroute/internal/hybrid"
	"stochroute/internal/netgen"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

const (
	testWidth  = 2.0
	testMinObs = 6
)

// writeArtifacts trains a k-slice engine over a small synthetic city and
// writes the three files cmd/route loads into dir. The returned engine
// is the reference the command's output is checked against: the command
// rebuilds the same knowledge bases from the same trajectories and binds
// the same weights to them.
func writeArtifacts(t *testing.T, dir string, k int) (eng *stochroute.Engine, args []string) {
	t.Helper()
	ncfg := netgen.DefaultConfig()
	ncfg.Rows, ncfg.Cols = 10, 10
	ncfg.CellMeters = 130
	g, err := netgen.Generate(ncfg)
	if err != nil {
		t.Fatal(err)
	}
	wcfg := traj.DefaultWorldConfig()
	wcfg.NoiseProb = 0
	wcfg.BucketWidth = testWidth
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
		NumTrajectories: 1500 * k, MinEdges: 4, MaxEdges: 16, Seed: 9, Slices: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	hcfg := hybrid.DefaultConfig()
	hcfg.Width, hcfg.MinPairObs, hcfg.Slices = testWidth, testMinObs, k
	hcfg.TrainPairs, hcfg.TestPairs = 200, 50
	hcfg.Estimator.Train.Epochs = 8
	hcfg.PrefixRows = 0
	eng, err = stochroute.NewEngineFromObservations(g, trs, hcfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}

	net, trips, model := filepath.Join(dir, "net.srg"), filepath.Join(dir, "trips.srt"), filepath.Join(dir, "model.srhm")
	nf, err := os.Create(net)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Graph().WriteTo(nf); err != nil {
		t.Fatal(err)
	}
	if err := nf.Close(); err != nil {
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
	if err := eng.SaveModel(model); err != nil {
		t.Fatal(err)
	}
	return eng, []string{"-net", net, "-traj", trips, "-model", model}
}

func latLon(p stochroute.Point) string {
	return strconv.FormatFloat(p.Lat, 'f', -1, 64) + "," + strconv.FormatFloat(p.Lon, 'f', -1, 64)
}

// TestRunMatchesDirectPBR runs the command end to end on artifacts in a
// temporary directory — a 1-slice and a 4-slice model, classic and
// time-expanded — and checks what it prints (snapped endpoints, the
// answer's probability, length and mean, the slice sequence, the
// mean-cost baseline) against routing.PBR called directly on the
// reference engine's coster.
func TestRunMatchesDirectPBR(t *testing.T) {
	for _, k := range []int{1, 4} {
		eng, artifacts := writeArtifacts(t, t.TempDir(), k)
		g := eng.Graph()
		qs, err := eng.SampleQueries(0.4, 1.2, 1, 31)
		if err != nil {
			t.Fatal(err)
		}
		q := qs[0]
		// Just before a slice boundary, so the 4-slice expanded search has
		// a boundary to cross.
		depart := traj.SliceStart(2, 4) - 60
		slice := eng.SliceOf(depart)
		model := eng.SliceModel(slice)
		basePath, baseMean, err := routing.MeanCostPath(g, model.KB, q.Source, q.Dest)
		if err != nil {
			t.Fatal(err)
		}
		baseDist, err := hybrid.PathCost(model, basePath)
		if err != nil {
			t.Fatal(err)
		}
		// The model's own expected time for the mean-cost path: a budget
		// that keeps every probability below away from 0 and 1.
		budget := baseDist.Mean()

		for _, expand := range []bool{false, true} {
			name := fmt.Sprintf("slices=%d/expand=%v", k, expand)
			var out bytes.Buffer
			args := append(append([]string{}, artifacts...),
				"-from", latLon(g.Point(q.Source)), "-to", latLon(g.Point(q.Dest)),
				"-budget", strconv.FormatFloat(budget, 'f', -1, 64),
				"-depart", strconv.FormatFloat(depart, 'f', -1, 64),
				fmt.Sprintf("-expand=%v", expand))
			if err := run(args, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}

			var coster hybrid.Coster = model
			if expand {
				coster = eng.ModelSet().TimeExpandedCoster(depart, nil)
			}
			res, err := routing.PBR(g, coster, q.Source, q.Dest, routing.Options{
				Budget: budget, Departure: depart, TimeExpanded: expand,
			})
			if err != nil || !res.Found {
				t.Fatalf("%s: direct PBR: found=%v err=%v", name, res != nil && res.Found, err)
			}
			if res.Prob < 0.01 || res.Prob > 0.99 {
				t.Fatalf("%s: reference probability %v pins nothing; pick another budget", name, res.Prob)
			}
			want := []string{
				fmt.Sprintf("-> vertex %d ", q.Source),
				fmt.Sprintf("-> vertex %d ", q.Dest),
				fmt.Sprintf("budget routing (t = %.0fs):\n  P(on time) = %.3f   edges = %d   mean = %.0fs\n",
					budget, res.Prob, len(res.Path), res.Dist.Mean()),
				fmt.Sprintf("expansions = %d, labels = %d,", res.Expansions, res.GeneratedLabels),
				"complete = true",
				fmt.Sprintf("mean-cost baseline:\n  P(on time) = %.3f   edges = %d   mean = %.0fs\n",
					baseDist.ProbWithinBudget(budget), len(basePath), baseMean),
			}
			if k > 1 {
				want = append(want, fmt.Sprintf("departure %.0fs -> time slice %d of %d\n", depart, slice, k))
			}
			if expand {
				want = append(want, "slice sequence = "+summariseSlices(res.SliceSeq)+"\n")
			}
			for _, w := range want {
				if !strings.Contains(out.String(), w) {
					t.Errorf("%s: output lacks %q:\n%s", name, w, out.String())
				}
			}
			if !expand && strings.Contains(out.String(), "slice sequence") {
				t.Errorf("%s: classic answer printed a slice sequence:\n%s", name, out.String())
			}
		}
	}
}

// TestRunErrors: bad arguments and unreadable artifacts come back as
// errors from run, not as exits.
func TestRunErrors(t *testing.T) {
	if err := run([]string{"-to", "1,2"}, io.Discard); err == nil {
		t.Error("missing -from should error")
	}
	if err := run([]string{"-from", "91,0", "-to", "1,2"}, io.Discard); err == nil {
		t.Error("out-of-range latitude should error")
	}
	missing := filepath.Join(t.TempDir(), "absent.srg")
	if err := run([]string{"-net", missing, "-from", "1,2", "-to", "1,2"}, io.Discard); err == nil {
		t.Error("missing network file should error")
	}

	// A file in a retired format fails with the error that says how to
	// regenerate it, prefixed with the file's path.
	dir := t.TempDir()
	_, artifacts := writeArtifacts(t, dir, 1)
	args := append(artifacts, "-from", "57,9.9", "-to", "57.01,9.91")
	for _, tc := range []struct {
		file, magic string
		want        error
	}{
		{"model.srhm", "SRHM", hybrid.ErrSRHMRetired},
		{"trips.srt", "SRT1", traj.ErrSRT1Retired},
	} {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, []byte(tc.magic+"\x01\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(args, io.Discard)
		if !errors.Is(err, tc.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s file: err = %v, want %v naming %s", tc.magic, err, tc.want, path)
		}
	}
}

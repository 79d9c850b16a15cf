// Command train fits the Hybrid Model (distribution estimator +
// convolve-vs-estimate classifier) from a network and trajectory file,
// reports the paper's KL-divergence evaluation on held-out pairs, and
// writes the model set in the SRH3 binary format. The file records the
// training recipe (-width, -min-obs, -train-pairs, -test-pairs,
// -epochs), so cmd/serve and cmd/route rebuild the knowledge bases the
// model was trained on, and cmd/serve's background rebuilds train the
// same way, with no flags of their own.
//
// Usage:
//
//	train -net net.srg -traj trips.srt -out model.srhm
//
// With -slices k one model is trained per time-of-day slice on that
// slice's trajectories (bucketed by departure timestamp) and the
// output is a k-slice set; cmd/serve and cmd/route adopt the file's
// slice count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"time"

	"stochroute"
	"stochroute/internal/hybrid"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run trains the model the arguments describe through
// stochroute.NewEngineFromObservations, prints its evaluation to stdout
// and writes it with Engine.SaveModel.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	netPath := fs.String("net", "net.srg", "input network file (SRG1)")
	trajPath := fs.String("traj", "trips.srt", "input trajectory file (SRT2)")
	out := fs.String("out", "model.srhm", "output model file")
	trainPairs := fs.Int("train-pairs", 4000, "training edge pairs (paper: 4000)")
	testPairs := fs.Int("test-pairs", 1000, "held-out test edge pairs (paper: 1000)")
	minObs := fs.Int("min-obs", 20, "minimum joint observations for a pair to count as having data")
	width := fs.Float64("width", 2, "histogram grid width in seconds")
	epochs := fs.Int("epochs", 120, "estimator training epochs")
	numSlices := fs.Int("slices", 1, "time-of-day slices: train one model per slice (1 = single time-homogeneous model)")
	landmarks := fs.Int("landmarks", 0, "dry-run ALT landmark preprocessing after training and report its cost (what cmd/serve -landmarks=N will pay per model generation; 0 skips)")
	verbose := fs.Bool("v", false, "log training progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := traj.CheckWidth(*width); err != nil {
		return fmt.Errorf("-width: %w", err)
	}

	g, err := stochroute.LoadGraph(*netPath)
	if err != nil {
		return err
	}
	tf, err := os.Open(*trajPath)
	if err != nil {
		return err
	}
	trs, err := traj.ReadTrajectoryStream(tf, g)
	tf.Close()
	if err != nil {
		return err
	}
	cfg := hybrid.DefaultConfig()
	cfg.Width = *width
	cfg.TrainPairs = *trainPairs
	cfg.TestPairs = *testPairs
	cfg.MinPairObs = *minObs
	cfg.Estimator.Train.Epochs = *epochs
	cfg.Slices = *numSlices
	if *verbose {
		cfg.Estimator.Train.Logf = log.Printf
	}

	eng, err := stochroute.NewEngineFromObservations(g, trs, cfg, io.Discard)
	if err != nil {
		return err
	}
	k := eng.NumSlices()
	perSlice := make([]int, k)
	for i := range trs {
		perSlice[eng.SliceOf(trs[i].Departure)]++
	}
	for s, report := range eng.Reports {
		kb := eng.SliceKnowledgeBase(s)
		if k > 1 {
			fmt.Fprintf(stdout, "slice %d: %d trajectories, %d pairs with >= %d observations\n",
				s, perSlice[s], kb.NumPairs(), cfg.MinPairObs)
		} else {
			fmt.Fprintf(stdout, "knowledge base: %d pairs with >= %d observations\n", kb.NumPairs(), cfg.MinPairObs)
		}
		observed, edges, distinct := kb.EdgeCoverage()
		fmt.Fprintf(stdout, "observed %d of %d edges, %d distinct marginals\n", observed, edges, distinct)
		fmt.Fprintf(stdout, "evaluation on %d held-out pairs (ground truth: empirical joint distributions):\n", report.TestPairs)
		fmt.Fprintf(stdout, "  KL(hybrid)        = %.4f\n", report.MeanKLHybrid)
		fmt.Fprintf(stdout, "  KL(convolution)   = %.4f\n", report.MeanKLConv)
		fmt.Fprintf(stdout, "  KL(estimate-only) = %.4f\n", report.MeanKLEstimate)
		fmt.Fprintf(stdout, "  classifier accuracy %.3f, F1 %.3f, AUC %.3f\n",
			report.ClassifierConfusion.Accuracy(), report.ClassifierConfusion.F1(), report.ClassifierAUC)
	}

	// ALT preprocessing dry run: build the landmark tables cmd/serve
	// -landmarks builds for this model set — through the engine's own
	// helper, so the landmarks and the sharing are the same — and report
	// what each generation swap will cost in wall clock and memory
	// (float32 tables: 2·L·V·4 B each, one per distinct metric). The
	// tables themselves are serve-time state and are not written to the
	// model file.
	if *landmarks > 0 {
		t0 := time.Now()
		alt, err := routing.NewALTSet(g, eng.ModelSet(), *landmarks)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		tables := alt.Tables()
		var bytes int64
		for _, t := range tables {
			bytes += t.TableBytes()
		}
		tableOf := make([]int, k)
		for s := range tableOf {
			tableOf[s] = slices.Index(tables, alt.Slice(s))
		}
		fmt.Fprintf(stdout, "alt: %d landmarks, table by slice %v, min-across-slices table %d\n",
			len(alt.Landmarks()), tableOf, slices.Index(tables, alt.Min()))
		fmt.Fprintf(stdout, "alt: %d distinct table(s) built in %v, %.1f MB resident (float32) — paid once per model generation at serve time\n",
			len(tables), d.Round(time.Millisecond), float64(bytes)/(1<<20))
	}

	if err := eng.SaveModel(*out); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d slice(s))\n", *out, k)
	return nil
}

// Command train fits the Hybrid Model (distribution estimator +
// convolve-vs-estimate classifier) from a network and trajectory file,
// reports the paper's KL-divergence evaluation on held-out pairs, and
// writes the model set in the SRH2 binary format.
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
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"time"

	"stochroute/internal/graph"
	"stochroute/internal/hybrid"
	"stochroute/internal/routing"
	"stochroute/internal/traj"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("train: ")

	netPath := flag.String("net", "net.srg", "input network file (SRG1)")
	trajPath := flag.String("traj", "trips.srt", "input trajectory file (SRT2)")
	out := flag.String("out", "model.srhm", "output model file")
	trainPairs := flag.Int("train-pairs", 4000, "training edge pairs (paper: 4000)")
	testPairs := flag.Int("test-pairs", 1000, "held-out test edge pairs (paper: 1000)")
	minObs := flag.Int("min-obs", 20, "minimum joint observations for a pair to count as having data")
	width := flag.Float64("width", 2, "histogram grid width in seconds")
	epochs := flag.Int("epochs", 120, "estimator training epochs")
	numSlices := flag.Int("slices", 1, "time-of-day slices: train one model per slice (1 = single time-homogeneous model)")
	landmarks := flag.Int("landmarks", 0, "dry-run ALT landmark preprocessing after training and report its cost (what cmd/serve -landmarks=N will pay per model generation; 0 skips)")
	verbose := flag.Bool("v", false, "log training progress")
	flag.Parse()
	if err := traj.CheckWidth(*width); err != nil {
		log.Fatalf("-width: %v", err)
	}

	f, err := os.Open(*netPath)
	if err != nil {
		log.Fatal(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	tf, err := os.Open(*trajPath)
	if err != nil {
		log.Fatal(err)
	}
	trs, err := traj.ReadTrajectoryStream(tf, g)
	tf.Close()
	if err != nil {
		log.Fatal(err)
	}
	cfg := hybrid.DefaultConfig()
	cfg.Width = *width
	cfg.TrainPairs = *trainPairs
	cfg.TestPairs = *testPairs
	cfg.MinPairObs = *minObs
	cfg.Estimator.Train.Epochs = *epochs
	cfg.Estimator.Train.Verbose = *verbose
	cfg.Slices = *numSlices
	if *verbose {
		cfg.Estimator.Train.Logf = log.Printf
	}

	k := traj.NumSlices(*numSlices)
	obs := traj.CollectSlices(g, *width, k, trs)
	bySlice := traj.SplitBySlice(trs, k)

	set, reports, err := hybrid.TrainSlices(g, obs, bySlice, nil, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for s, report := range reports {
		if k > 1 {
			fmt.Printf("slice %d: %d trajectories, %d pairs with >= %d observations\n",
				s, len(bySlice[s]), set.At(s).KB.NumPairs(), cfg.MinPairObs)
		} else {
			fmt.Printf("knowledge base: %d pairs with >= %d observations\n", set.At(s).KB.NumPairs(), cfg.MinPairObs)
		}
		observed, edges, distinct := set.At(s).KB.EdgeCoverage()
		fmt.Printf("observed %d of %d edges, %d distinct marginals\n", observed, edges, distinct)
		fmt.Printf("evaluation on %d held-out pairs (ground truth: empirical joint distributions):\n", report.TestPairs)
		fmt.Printf("  KL(hybrid)        = %.4f\n", report.MeanKLHybrid)
		fmt.Printf("  KL(convolution)   = %.4f\n", report.MeanKLConv)
		fmt.Printf("  KL(estimate-only) = %.4f\n", report.MeanKLEstimate)
		fmt.Printf("  classifier accuracy %.3f, F1 %.3f, AUC %.3f\n",
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
		alt, err := routing.NewALTSet(g, set, *landmarks)
		if err != nil {
			log.Fatal(err)
		}
		d := time.Since(t0)
		tables := alt.Tables()
		var bytes int64
		for _, t := range tables {
			bytes += t.TableBytes()
		}
		tableOf := make([]int, set.K())
		for s := range tableOf {
			tableOf[s] = slices.Index(tables, alt.Slice(s))
		}
		fmt.Printf("alt: %d landmarks, table by slice %v, min-across-slices table %d\n",
			len(alt.Landmarks()), tableOf, slices.Index(tables, alt.Min()))
		fmt.Printf("alt: %d distinct table(s) built in %v, %.1f MB resident (float32) — paid once per model generation at serve time\n",
			len(tables), d.Round(time.Millisecond), float64(bytes)/(1<<20))
	}

	of, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := hybrid.WriteModelSet(of, set); err != nil {
		of.Close()
		log.Fatal(err)
	}
	if err := of.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d slice(s))\n", *out, set.K())
}

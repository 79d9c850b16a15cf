// Command experiments regenerates every table of the paper's empirical
// study on the synthetic substrate (the E1–E8 section banners of
// internal/exp are the experiment index).
//
// Usage:
//
//	experiments -scale medium -run all
//	experiments -scale small -run quality,efficiency
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"stochroute/internal/exp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")

	scaleFlag := flag.String("scale", "medium", "substrate scale: small|medium|large")
	runFlag := flag.String("run", "all", "comma-separated experiments: motivating,conv,dependence,kl,quality,efficiency,ablation,anytime or all")
	quiet := flag.Bool("q", false, "suppress build progress")
	csvDir := flag.String("csv", "", "also write machine-readable tables to this directory")
	flag.Parse()

	scale, err := exp.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	want := map[string]bool{}
	for _, name := range strings.Split(*runFlag, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	needSetup := all || want["conv"] || want["dependence"] || want["kl"] ||
		want["quality"] || want["efficiency"] || want["ablation"] || want["anytime"]

	out := os.Stdout
	logW := os.Stderr
	if *quiet {
		devNull, _ := os.Open(os.DevNull)
		logW = devNull
	}

	var s *exp.Setup
	if needSetup {
		s, err = exp.Build(scale, logW)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	if all || want["motivating"] {
		if _, err := exp.RunMotivating(out); err != nil {
			log.Fatal(err)
		}
	}
	if all || want["conv"] {
		if _, err := exp.RunConvVsTruth(s, out); err != nil {
			log.Fatal(err)
		}
	}
	if all || want["dependence"] {
		if _, err := exp.RunDependence(s, 0.05, out); err != nil {
			log.Fatal(err)
		}
	}
	if all || want["kl"] {
		if err := exp.RunKLEval(s, out); err != nil {
			log.Fatal(err)
		}
	}
	writeCSV := func(name string, fn func(io.Writer) error) {
		if *csvDir == "" {
			return
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err != nil {
			log.Fatal(err)
		}
		if err := fn(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	if all || want["quality"] {
		rows, err := exp.RunQuality(s, exp.DefaultQualityConfig(), out)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("quality.csv", func(w io.Writer) error { return exp.QualityCSV(w, rows) })
	}
	if all || want["efficiency"] {
		rows, err := exp.RunEfficiency(s, out)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("efficiency.csv", func(w io.Writer) error { return exp.EfficiencyCSV(w, rows) })
	}
	if all || want["ablation"] {
		rows, err := exp.RunAblation(s, out)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("ablation.csv", func(w io.Writer) error { return exp.AblationCSV(w, rows) })
	}
	if all || want["anytime"] {
		points, err := exp.RunAnytimeCurve(s, out)
		if err != nil {
			log.Fatal(err)
		}
		writeCSV("anytime.csv", func(w io.Writer) error { return exp.AnytimeCSV(w, points) })
	}
}

// Command bench is the repository's benchmark: it boots the real serving
// topology in one process — harness client -> gateway -> replica
// server(s) -> engine -> PBR search -> hybrid cost model — over loopback
// HTTP on fixed synthetic fixtures, replays a seed-generated request list
// as identical blocks, verifies every answer, and prints every metric by
// name and unit. See README.md in this directory.
//
//	bash bench/run.sh --workload city_search --seed 1 --seconds 10 --trace 0
//	bash bench/run.sh --calibrate 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// pinnedGOGC is the collector target the benchmark runs under whatever
// the environment says: heap and GC-share metrics compare only at one
// setting.
const pinnedGOGC = 100

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: city_search, city_hot, metro_expanded_batch or ingest_swap")
		seed      = flag.Uint64("seed", 1, "seed the request list (and the drifted trajectories) derive from")
		seconds   = flag.Int("seconds", 10, "run length: buys this many seconds' worth of blocks (and ingest rounds) at the reference box's pace")
		trace     = flag.Int("trace", 0, "1 adds the descent trace and prints the per-layer metrics instead of the end-to-end ones")
		scaleName = flag.String("scale", "full", "fixture sizing: full (what BENCHMARK.json runs) or smoke (toy sizes for the package test)")
		outDir    = flag.String("out", "bench/out", "directory the traced run writes <workload>.spans.jsonl to")
		calibrate = flag.Int("calibrate", 0, "run every workload N times in each of two alternating sets and print the spread table")
	)
	flag.Parse()

	// Two cores, always: the workloads are sized to saturate exactly two,
	// and numbers from a differently sized box must not look comparable.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(pinnedGOGC)

	if *calibrate > 0 {
		os.Exit(runCalibration(*calibrate, *seconds))
	}
	sc := scales()[*scaleName]
	def := workloadByName(*workload)
	if sc == nil || def == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, scale %q, or bad -seconds/-trace\n", *workload, *scaleName)
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(runConfig{
		def:       def,
		sc:        sc,
		seed:      *seed,
		runLength: time.Duration(*seconds) * time.Second,
		trace:     *trace == 1,
		outDir:    *outDir,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := rep.print(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !rep.result.Correct {
		os.Exit(1)
	}
}

// print writes the run: the environment and run facts as one JSON line,
// every metric by name with its unit, and — last — the result object.
func (r *runReport) print() error {
	info, err := json.Marshal(r.info)
	if err != nil {
		return err
	}
	fmt.Printf("info %s\n", info)
	for _, note := range r.notes {
		fmt.Printf("invalid %s\n", note)
	}
	for _, d := range r.decls {
		fmt.Printf("metric %-36s %16.6f %s\n", d.name, r.values[d.name], d.unit)
	}
	last, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	return nil
}

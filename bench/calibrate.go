package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json calibration judges by.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// runCalibration answers "does this benchmark agree with itself": every
// workload is run n times in each of two sets, A and B alternating, each
// run a fresh process with its own seed, as the acceptance procedure
// does. For every end-to-end metric it prints each set's spread
// ((q3-q1)/median, Python's statistics.quantiles rule) and how much
// worse B's median is than A's, as Markdown. It fails when a spread
// exceeds the metric's bound or a between-set deviation exceeds half of
// it (setup_s: the whole bound, and no limit on its spread).
func runCalibration(n, seconds int) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: calibrate:", err)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: calibrate:", err)
		return 1
	}
	if n < 5 {
		fmt.Fprintln(os.Stderr, "bench: calibrate: need at least 5 runs per set")
		return 2
	}
	status := 0
	fmt.Printf("# Calibration: %d runs per set, %d s per run\n\n", n, seconds)
	fmt.Println("Set A uses seeds 1..n, set B seeds n+1..2n; runs alternate A, B, A, B, ….")
	fmt.Println("`spread` is (q3-q1)/median within a set; `shift` is how much worse B's median is than A's (negative: better).")
	for _, w := range bf.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			set := i % 2
			seed := i/2 + 1 + set*n
			m, err := runOnce(self, w.Name, seed, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: calibrate: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			for name, mv := range m {
				sets[set][name] = append(sets[set][name], mv.Value)
			}
		}
		fmt.Printf("\n## %s\n\n", w.Name)
		fmt.Println("| metric | unit | median A | median B | spread A | spread B | shift | bound | verdict |")
		fmt.Println("|---|---|---|---|---|---|---|---|---|")
		for _, e := range bf.EndToEnd {
			a, b := sets[0][e.Name], sets[1][e.Name]
			ma, mb := median(a), median(b)
			shift := 0.0
			if ma != 0 {
				shift = (mb - ma) / ma
				if e.Better == "higher" {
					shift = -shift
				}
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			spreadLimit, shiftLimit := e.Bound, e.Bound/2
			if e.Name == "setup_s" {
				spreadLimit, shiftLimit = 1e9, e.Bound
			}
			if sa > spreadLimit || sb > spreadLimit || shift > shiftLimit {
				verdict = "FAIL"
				status = 1
			} else if sa > e.Bound/3 || sb > e.Bound/3 {
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Printf("| `%s` | %s | %.6g | %.6g | %.4f | %.4f | %+.4f | %.2f | %s |\n",
				e.Name, e.Unit, ma, mb, sa, sb, shift, e.Bound, verdict)
		}
	}
	return status
}

// runOnce runs one workload in a fresh process and returns its metrics.
func runOnce(self, workload string, seed, seconds int) (map[string]metricValue, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("last line is not a result: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct=false (%d of %d failed)", res.Failed, res.Attempted)
	}
	return res.Metrics, nil
}

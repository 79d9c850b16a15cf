package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// TestSmokeMatchesBenchmarkJSON runs every workload on the toy fixtures,
// untraced and traced, and holds the output to BENCHMARK.json: the same
// workloads, and for each mode exactly the declared metric names with the
// declared units — none missing, none undeclared. The traced run must
// also leave a span file in which every parent resolves.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := make(map[string]bool)
	for _, w := range bf.Workloads {
		declared[w.Name] = true
		if workloadByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json declares workload %q, which the benchmark does not have", w.Name)
		}
	}
	for _, w := range workloads() {
		if !declared[w.name] {
			t.Errorf("workload %q is missing from BENCHMARK.json", w.name)
		}
	}
	endToEndUnits := make(map[string]string)
	for _, m := range bf.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	perLayerUnits := make(map[string]string)
	for _, m := range bf.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}

	sc := scales()["smoke"]
	outDir := t.TempDir()
	for _, def := range workloads() {
		for _, traced := range []bool{false, true} {
			rep, err := run(runConfig{def: def, sc: sc, seed: 7, runLength: 150 * time.Millisecond, trace: traced, outDir: outDir})
			if err != nil {
				t.Fatalf("%s (trace=%v): %v", def.name, traced, err)
			}
			if !rep.result.Correct || rep.result.Failed != 0 || rep.result.Attempted < 1 {
				t.Errorf("%s (trace=%v): correct=%v attempted=%d failed=%d notes=%v",
					def.name, traced, rep.result.Correct, rep.result.Attempted, rep.result.Failed, rep.notes)
			}
			want := endToEndUnits
			if traced {
				want = perLayerUnits
			}
			for name, mv := range rep.result.Metrics {
				unit, ok := want[name]
				if !ok {
					t.Errorf("%s (trace=%v): prints undeclared metric %q", def.name, traced, name)
				} else if unit != mv.Unit {
					t.Errorf("%s: metric %q printed in %q, declared in %q", def.name, name, mv.Unit, unit)
				}
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s: metric %q is %v", def.name, name, mv.Value)
				}
				if !traced && mv.Value <= 0 {
					t.Errorf("%s: end-to-end metric %q is %v, must be positive", def.name, name, mv.Value)
				}
			}
			for name := range want {
				if _, ok := rep.result.Metrics[name]; !ok {
					t.Errorf("%s (trace=%v): declared metric %q not printed", def.name, traced, name)
				}
			}
			if traced {
				checkSpans(t, rep.spansFile)
			}
		}
	}
}

func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	known := make(map[[2]int]span)
	for _, s := range spans {
		known[[2]int{s.Trace, s.Span}] = s
	}
	for _, s := range spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d/%d ends before it starts", path, s.Trace, s.Span)
		}
		if s.Parent == 0 {
			if s.Name != "client.request" {
				t.Errorf("%s: root span %d/%d is %q", path, s.Trace, s.Span, s.Name)
			}
			continue
		}
		if _, ok := known[[2]int{s.Trace, s.Parent}]; !ok {
			t.Errorf("%s: span %d/%d names unknown parent %d", path, s.Trace, s.Span, s.Parent)
		}
	}
}

// TestQuartilesMatchPython pins the spread rule to the values Python's
// statistics.quantiles(data, n=4) gives, since that is what the bounds in
// BENCHMARK.json are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 2, 7, 4, 5}, 3, 5, 8.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartilesExclusive(c.data)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

package obs

import (
	"bytes"
	"io"
	"math"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"stochroute/internal/israce"
)

// TestExpositionGolden locks the exposition format byte for byte:
// families sorted by name, children by label set, histograms as
// cumulative buckets plus _sum and _count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.", L("endpoint", "/route"))
	c.Add(3)
	r.Counter("requests_total", "Total requests.", L("endpoint", "/stats")).Inc()
	g := r.Gauge("inflight", "In-flight requests.")
	g.Set(2.5)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1}, L("slice", "0"))
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP inflight In-flight requests.
# TYPE inflight gauge
inflight 2.5
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{slice="0",le="0.1"} 1
latency_seconds_bucket{slice="0",le="1"} 2
latency_seconds_bucket{slice="0",le="+Inf"} 3
latency_seconds_sum{slice="0"} 5.55
latency_seconds_count{slice="0"} 3
# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total{endpoint="/route"} 3
requests_total{endpoint="/stats"} 1
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistrationIdempotent verifies the same (name, labels) returns
// the same child so subsystems can share series.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "X.", L("k", "v"))
	b := r.Counter("x_total", "X.", L("k", "v"))
	if a != b {
		t.Fatal("same (name, labels) returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatalf("shared counter value = %d, want 1", b.Value())
	}
	// Label order must not matter.
	h1 := r.Histogram("h", "H.", []float64{1}, L("a", "1"), L("b", "2"))
	h2 := r.Histogram("h", "H.", []float64{1}, L("b", "2"), L("a", "1"))
	if h1 != h2 {
		t.Fatal("label order produced distinct histograms")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "M.")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "M.")
}

func TestGaugeFuncAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	v := 41.0
	r.GaugeFunc("lazy_gauge", "Lazy.", func() float64 { return v })
	r.CounterFunc("lazy_total", "Lazy total.", func() float64 { return 7 })
	v = 42
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"lazy_gauge 42\n", "lazy_total 7\n", "# TYPE lazy_total counter"} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "Esc.", L("path", `a"b\c`+"\n")).Inc()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="a\"b\\c\n"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped exposition missing %q:\n%s", want, buf.String())
	}
	// And the parser must invert it, for any value: one that looks like
	// an exemplar marker, braces, or bytes that are not UTF-8 beside a
	// byte that needs escaping too.
	for _, v := range []string{`a"b\c` + "\n", `x # {trace_id="y"} 1`, `}`, `{a="b"}`, "\xff\"\xfe", ``} {
		r := NewRegistry()
		r.Counter("esc_total", "Esc.", L("path", v)).Inc()
		requireRoundTrip(t, r, "esc_total", v, 1)
	}
}

// identifier is a metric or label name the registry could have
// rendered.
var identifier = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// FuzzParseText: whatever the bytes, ParseText does not panic and
// allocates in proportion to the input; the samples it accepts under
// names the registry could render parse back the same from their
// rendering; and the input used as a label value and as an exemplar's
// trace ID comes back byte for byte from both expositions. The seed
// corpus is in testdata/fuzz/FuzzParseText.
func FuzzParseText(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		var samples []Sample
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		samples, err = ParseText(strings.NewReader(text))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; !israce.Enabled && alloc > 64*uint64(len(text))+64<<10 {
			t.Fatalf("%d input bytes allocated %d bytes", len(text), alloc)
		}
		if err == nil {
			var b strings.Builder
			var kept []Sample
		samples:
			for _, s := range samples {
				if !identifier.MatchString(s.Name) {
					continue
				}
				labels := make([]Label, 0, len(s.Labels))
				for k, v := range s.Labels {
					if !identifier.MatchString(k) {
						continue samples
					}
					labels = append(labels, L(k, v))
				}
				b.WriteString(s.Name + renderLabels(labels) + " " + formatFloat(s.Value) + "\n")
				kept = append(kept, s)
			}
			back, err := ParseText(strings.NewReader(b.String()))
			if err != nil || len(back) != len(kept) {
				t.Fatalf("rendering of %+v parses as %+v, %v:\n%s", kept, back, err, b.String())
			}
			for i := range kept {
				if !sameSample(back[i], kept[i]) {
					t.Fatalf("sample %+v parses back as %+v", kept[i], back[i])
				}
			}
		}

		r := NewRegistry()
		r.Counter("fuzz_total", "Fuzz.", L("path", text)).Add(3)
		r.Histogram("fuzz_seconds", "Fuzz.", []float64{1}).ObserveWithExemplar(0.5, text)
		requireRoundTrip(t, r, "fuzz_total", text, 3)
	})
}

// sameSample compares two samples, NaN values equal to each other.
func sameSample(a, b Sample) bool {
	if a.Name != b.Name || len(a.Labels) != len(b.Labels) {
		return false
	}
	for k, v := range a.Labels {
		if w, ok := b.Labels[k]; !ok || w != v {
			return false
		}
	}
	return a.Value == b.Value || math.IsNaN(a.Value) && math.IsNaN(b.Value)
}

// requireRoundTrip: both expositions of r parse back to a sample of
// name whose "path" label is v and whose value is want.
func requireRoundTrip(t *testing.T, r *Registry, name, v string, want float64) {
	t.Helper()
	for _, write := range []func(io.Writer) error{r.WriteText, r.WriteOpenMetrics} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		samples, err := ParseText(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("label value %q: %v in\n%s", v, err, buf.String())
		}
		found := false
		for _, s := range samples {
			if s.Name == name && s.Label("path") == v && s.Value == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("label value %q: no %s sample of %v in %+v\n%s", v, name, want, samples, buf.String())
		}
	}
}

// TestParseRoundTrip feeds a full registry's exposition through the
// parser and checks the samples that come back.
func TestParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "A.", L("slice", "1")).Add(9)
	r.Gauge("b", "B.").Set(-1.5)
	h := r.Histogram("lat", "Lat.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string]float64{}
	for _, s := range samples {
		byKey[s.Name+"|"+s.Label("slice")+"|"+s.Label("le")] = s.Value
	}
	checks := map[string]float64{
		"a_total|1|":       9,
		"b||":              -1.5,
		"lat_bucket||1":    1,
		"lat_bucket||2":    2,
		"lat_bucket||+Inf": 2,
		"lat_sum||":        2,
		"lat_count||":      2,
	}
	for k, want := range checks {
		if got, ok := byKey[k]; !ok || got != want {
			t.Errorf("sample %q = %v (present=%v), want %v", k, got, ok, want)
		}
	}
}

func TestHistogramDeltaAndQuantile(t *testing.T) {
	r := NewRegistry()
	h0 := r.Histogram("lat_seconds", "Lat.", []float64{0.1, 0.2, 0.4}, L("slice", "0"))
	h1 := r.Histogram("lat_seconds", "Lat.", []float64{0.1, 0.2, 0.4}, L("slice", "1"))
	h0.Observe(0.05) // pre-existing traffic
	var before bytes.Buffer
	if err := r.WriteText(&before); err != nil {
		t.Fatal(err)
	}
	bs, err := ParseText(&before)
	if err != nil {
		t.Fatal(err)
	}
	// 10 observations land in (0.1, 0.2], 10 in (0.2, 0.4], across slices.
	for i := 0; i < 10; i++ {
		h0.Observe(0.15)
		h1.Observe(0.3)
	}
	var after bytes.Buffer
	if err := r.WriteText(&after); err != nil {
		t.Fatal(err)
	}
	as, err := ParseText(&after)
	if err != nil {
		t.Fatal(err)
	}
	bounds, cum, total := HistogramDelta(bs, as, "lat_seconds")
	if total != 20 {
		t.Fatalf("delta total = %d, want 20", total)
	}
	p50 := Quantile(bounds, cum, 0.5)
	if p50 < 0.1 || p50 > 0.2 {
		t.Errorf("p50 = %v, want within (0.1, 0.2]", p50)
	}
	p99 := Quantile(bounds, cum, 0.99)
	if p99 < 0.2 || p99 > 0.4 {
		t.Errorf("p99 = %v, want within (0.2, 0.4]", p99)
	}
	if !math.IsNaN(Quantile(nil, nil, 0.5)) {
		t.Error("empty histogram quantile should be NaN")
	}
}

// TestHotPathZeroAllocs proves the full per-query instrumentation
// record — endpoint counter, latency histogram and search sample —
// performs zero allocations.
func TestHotPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	reqs := r.Counter("http_requests_total", "Reqs.", L("endpoint", "/route"))
	lat := r.Histogram("route_latency_seconds", "Lat.", LatencyBuckets(),
		L("slice", "0"), L("cache", "miss"), L("time_expanded", "false"))
	sm := NewSearchMetrics(r, 4)
	sample := SearchSample{Slice: 2, Expansions: 120, GeneratedLabels: 300,
		PrunedPotential: 10, PrunedPivot: 20, PrunedDominance: 30,
		Convolved: 5, Estimated: 95, ArenaBytes: 1 << 17}
	allocs := testing.AllocsPerRun(1000, func() {
		reqs.Inc()
		lat.Observe(0.004)
		sm.Observe(sample)
	})
	if allocs != 0 {
		t.Fatalf("hot-path instrumentation allocates %.1f allocs/op, want 0", allocs)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == b {
		t.Fatalf("consecutive request IDs collide: %q", a)
	}
	if !strings.Contains(a, "-") {
		t.Fatalf("request ID %q missing prefix separator", a)
	}
}

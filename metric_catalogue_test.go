package stochroute

import (
	"bufio"
	"bytes"
	"maps"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"stochroute/internal/gateway"
	"stochroute/internal/ingest"
	"stochroute/internal/obs"
	"stochroute/internal/server"
)

// TestMetricCataloguesMatchRegistries: the metric catalogue in the
// package documentation of internal/server and of internal/gateway
// names exactly the families each process registers — a replica wired
// as cmd/serve wires it (server, the engine's search telemetry and the
// ingestor on one registry) and a gateway.
func TestMetricCataloguesMatchRegistries(t *testing.T) {
	e := testEngine(t)
	reg := obs.NewRegistry()
	obs.NewSearchMetrics(reg, e.NumSlices())
	ing := ingest.New(e, ingest.Config{Hybrid: DefaultConfig().Hybrid, Metrics: reg}, nil)
	server.New(e, server.Config{Metrics: reg, Ingestor: ing})
	checkCatalogue(t, "internal/server/doc.go", reg)

	gwReg := obs.NewRegistry()
	if _, err := gateway.New(gateway.Config{
		Replicas: []gateway.Replica{{ID: "r1", URL: "http://127.0.0.1:1"}},
		Metrics:  gwReg,
	}); err != nil {
		t.Fatal(err)
	}
	checkCatalogue(t, "internal/gateway/doc.go", gwReg)
}

var (
	labelSet   = regexp.MustCompile(`\{[^}]*\}`)
	metricName = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// checkCatalogue compares the bullet list after "Metric catalogue:" in
// doc with the families reg renders. Each bullet names its families
// before an em dash, comma-separated, each optionally followed by its
// label names in braces; prose follows the dash.
func checkCatalogue(t *testing.T, doc string, reg *obs.Registry) {
	t.Helper()
	src, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(src), "Metric catalogue:")
	if !ok {
		t.Fatalf("%s has no \"Metric catalogue:\" section", doc)
	}
	var bullets []string
	sc := bufio.NewScanner(strings.NewReader(after))
	sc.Scan() // the rest of the marker's line
list:
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "//" && len(bullets) == 0:
		case strings.HasPrefix(line, "//   - "):
			bullets = append(bullets, strings.TrimPrefix(line, "//   - "))
		case strings.HasPrefix(line, "//     ") && len(bullets) > 0:
			bullets[len(bullets)-1] += " " + strings.TrimSpace(strings.TrimPrefix(line, "//"))
		default:
			break list
		}
	}
	documented := map[string]bool{}
	for _, b := range bullets {
		names, _, ok := strings.Cut(b, "—")
		if !ok {
			t.Errorf("%s: catalogue bullet without an em dash: %q", doc, b)
			continue
		}
		for _, name := range strings.Split(labelSet.ReplaceAllString(names, ""), ",") {
			name = strings.TrimSpace(name)
			if !metricName.MatchString(name) {
				t.Errorf("%s: %q in catalogue bullet %q is not a family name", doc, name, b)
				continue
			}
			documented[name] = true
		}
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			registered[f[2]] = true
		}
	}
	if len(registered) == 0 || len(documented) == 0 {
		t.Fatalf("%s: %d families registered, %d documented", doc, len(registered), len(documented))
	}
	for _, name := range slices.Sorted(maps.Keys(registered)) {
		if !documented[name] {
			t.Errorf("%s: %s is registered but missing from the catalogue", doc, name)
		}
	}
	for _, name := range slices.Sorted(maps.Keys(documented)) {
		if !registered[name] {
			t.Errorf("%s: the catalogue names %s, which nothing registers", doc, name)
		}
	}
}

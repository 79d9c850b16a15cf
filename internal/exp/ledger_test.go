package exp

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"text/tabwriter"
)

var updateLedger = flag.Bool("update", false, "rewrite testdata/small.golden from the current tables")

const ledgerFile = "testdata/small.golden"

// smallRun is one run of every E-table on the Small setup, in the order
// and with the arguments `experiments -scale small` uses: the ledger
// compares its text, the shape tests read its results.
type smallRun struct {
	text       string
	quality    []QualityRow
	efficiency []EfficiencyRow
	ablation   []AblationRow
	anytime    []AnytimePoint
}

var (
	runOnce sync.Once
	runVal  *smallRun
	runErr  error
)

func smallTables(t *testing.T) *smallRun {
	t.Helper()
	s := smallSetup(t)
	runOnce.Do(func() { runVal, runErr = runAllTables(s) })
	if runErr != nil {
		t.Fatalf("tables: %v", runErr)
	}
	return runVal
}

func runAllTables(s *Setup) (*smallRun, error) {
	var out bytes.Buffer
	r := &smallRun{}
	out.WriteString("\n") // cmd/experiments' line after the build
	if _, err := RunMotivating(&out); err != nil {
		return nil, err
	}
	if _, err := RunConvVsTruth(s, &out); err != nil {
		return nil, err
	}
	if _, err := RunDependence(s, 0.05, &out); err != nil {
		return nil, err
	}
	if err := RunKLEval(s, &out); err != nil {
		return nil, err
	}
	var err error
	if r.quality, err = RunQuality(s, &out); err != nil {
		return nil, err
	}
	if r.efficiency, err = RunEfficiency(s, &out); err != nil {
		return nil, err
	}
	if r.ablation, err = RunAblation(s, &out); err != nil {
		return nil, err
	}
	if r.anytime, err = RunAnytimeCurve(s, &out); err != nil {
		return nil, err
	}
	r.text = out.String()
	return r, nil
}

// wallClockColumns names, by section, the one column of a table that
// reads the wall clock: E6 "Mean (sec)", E7 "sec" and E8 "mean sec".
var wallClockColumns = map[string]int{"E6": 1, "E7": 3, "E8": 2}

var cellSep = regexp.MustCompile(` {2,}`)

// maskWallClock replaces every wall-clock cell below a table's header
// with "-" and lays the masked table out again as the harness's
// tabwriter does, so the ledger holds only what the code determines.
func maskWallClock(text string) string {
	lines := strings.Split(text, "\n")
	var out []string
	for i := 0; i < len(lines); i++ {
		out = append(out, lines[i])
		section, _, _ := strings.Cut(lines[i], " ")
		col, ok := wallClockColumns[section]
		if !ok {
			continue
		}
		var buf bytes.Buffer
		tw := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
		for header := true; i+1 < len(lines) && lines[i+1] != ""; header = false {
			i++
			cells := cellSep.Split(lines[i], -1)
			if !header && col < len(cells) {
				cells[col] = "-"
			}
			tw.Write([]byte(strings.Join(cells, "\t") + "\n"))
		}
		tw.Flush()
		out = append(out, strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")...)
	}
	return strings.Join(out, "\n")
}

// TestSmallLedger freezes every E-table at Small scale: the output of
// `experiments -scale small -q` with the wall-clock columns masked. A
// change that moves any value of the paper's tables shows in this
// file's diff; rewrite it with `go test ./internal/exp -run
// TestSmallLedger -update` and declare the movement.
func TestSmallLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("the ledger runs every experiment")
	}
	// The tables read float bits of a model trained in-process; Go only
	// guarantees unfused multiply-adds (hence identical bits) on amd64.
	if runtime.GOARCH != "amd64" {
		t.Skip("the ledger is frozen for amd64 float arithmetic")
	}
	got := maskWallClock(smallTables(t).text)
	if *updateLedger {
		if err := os.WriteFile(ledgerFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(ledgerFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("ledger line %d:\n got %q\nwant %q", i+1, g, w)
			}
		}
	}
}

func TestMaskWallClock(t *testing.T) {
	in := "E6  title\nDist (km)  Mean (sec)  queries\n[0, 1)     0.012       6\n[1, 2.5)   12.500      6\n\nE5  other\na  0.012\n"
	want := "E6  title\nDist (km)  Mean (sec)  queries\n[0, 1)     -           6\n[1, 2.5)   -           6\n\nE5  other\na  0.012\n"
	if got := maskWallClock(in); got != want {
		t.Errorf("masked:\n%s\nwant:\n%s", got, want)
	}
}

package server

import (
	"fmt"
	"net/http"
	"os"
	"strings"
	"testing"
)

// TestIngestWireContract pins what POST /ingest answers to the bodies
// at the edges of its wire format: the status, and for a 200 the
// accepted/rejected split. Unknown fields are refused at every level;
// keys match under encoding/json's case folding, escaped or not, and
// the last of a repeated key wins; null leaves a field as it is, so a
// null trip is an empty one the ingestor rejects; edge IDs are integer
// literals in int32 range and times finite float64 values; only
// whitespace may follow the document; a body past the cap is a 413.
// The bodies live in internal/ingestwire/testdata/contract.tsv, which
// the gateway's test shares, so the gateway is held to the same table.
func TestIngestWireContract(t *testing.T) {
	fb := newFakeBackend(t)
	const maxBytes = 4096
	h := New(fb, Config{Ingestor: testIngestor(fb), MaxIngestBytes: maxBytes}).Handler()
	first, second := adjacentPair(t, fb.g)
	edges := fmt.Sprintf(`[%d,%d]`, first, second)
	valid := `{"edges":` + edges + `,"times":[10,12]}`
	atCap := func(n int) string {
		doc := `{"trajectories":[` + valid + `]}`
		return doc + strings.Repeat(" ", n-len(doc))
	}
	cases := readWireContract(t, strings.NewReplacer(
		"$VALID", valid, "$INVALID", `{"edges":[0],"times":[-3]}`, "$EDGES", edges, "$FIRST", fmt.Sprint(first)))
	cases = append(cases,
		wireCase{"body at the cap", atCap(maxBytes), 200, 1, 0},
		wireCase{"body one byte past the cap", atCap(maxBytes + 1), 413, 0, 0})

	for _, tc := range cases {
		rec, body := postJSON(t, h, "/ingest", tc.body)
		if rec.Code != tc.code {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, rec.Code, tc.code, body)
			continue
		}
		if tc.code != http.StatusOK {
			continue
		}
		if body["accepted"].(float64) != float64(tc.accepted) || body["rejected"].(float64) != float64(tc.rejected) {
			t.Errorf("%s: accepted/rejected %v/%v, want %d/%d", tc.name, body["accepted"], body["rejected"], tc.accepted, tc.rejected)
		}
	}
}

// wireCase is one body of the /ingest wire contract and what a replica
// answers to it.
type wireCase struct {
	name               string
	body               string
	code               int
	accepted, rejected int
}

// readWireContract reads the contract table the gateway's test shares,
// its bodies' placeholders replaced by r.
func readWireContract(t *testing.T, r *strings.Replacer) []wireCase {
	t.Helper()
	data, err := os.ReadFile("../ingestwire/testdata/contract.tsv")
	if err != nil {
		t.Fatal(err)
	}
	var cases []wireCase
	for line := range strings.Lines(string(data)) {
		if strings.HasPrefix(line, "#") {
			continue
		}
		var tc wireCase
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		if len(f) != 5 {
			t.Fatalf("contract line %q: want 5 tab-separated fields", line)
		}
		if _, err := fmt.Sscan(f[1]+" "+f[2]+" "+f[3], &tc.code, &tc.accepted, &tc.rejected); err != nil {
			t.Fatalf("contract line %q: %v", line, err)
		}
		tc.name, tc.body = f[0], r.Replace(f[4])
		cases = append(cases, tc)
	}
	return cases
}

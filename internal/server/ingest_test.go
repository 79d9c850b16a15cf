package server

import (
	"fmt"
	"net/http"
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
func TestIngestWireContract(t *testing.T) {
	fb := newFakeBackend(t)
	const maxBytes = 4096
	h := New(fb, Config{Ingestor: testIngestor(fb), MaxIngestBytes: maxBytes}).Handler()
	first, second := adjacentPair(t, fb.g)
	edges := fmt.Sprintf(`[%d,%d]`, first, second)
	valid := `{"edges":` + edges + `,"times":[10,12]}`
	invalid := `{"edges":[0],"times":[-3]}`
	atCap := func(n int) string {
		doc := `{"trajectories":[` + valid + `]}`
		return doc + strings.Repeat(" ", n-len(doc))
	}

	for _, tc := range []struct {
		name               string
		body               string
		code               int
		accepted, rejected int
	}{
		{"valid", `{"trajectories":[` + valid + `]}`, 200, 1, 0},
		{"unknown top-level field", `{"trajectories":[` + valid + `],"extra":1}`, 400, 0, 0},
		{"unknown nested field", `{"trajectories":[{"edges":` + edges + `,"times":[10,12],"speed":3}]}`, 400, 0, 0},
		{"case-folded keys", `{"TRAJECTORIES":[{"Edges":` + edges + `,"TIMES":[10,12],"DePart":60}]}`, 200, 1, 0},
		{"escaped keys", `{"traj\u0065ctories":[{"\u0065dges":` + edges + `,"t\u0069mes":[10,12]}]}`, 200, 1, 0},
		{"duplicate top-level key", `{"trajectories":[` + invalid + `,` + invalid + `],"trajectories":[` + valid + `]}`, 200, 1, 0},
		{"duplicate nested key", `{"trajectories":[{"edges":[0],"times":[10,12],"edges":` + edges + `}]}`, 200, 1, 0},
		{"null trajectory", `{"trajectories":[null,` + valid + `]}`, 200, 1, 1},
		{"null edges", `{"trajectories":[{"edges":null,"times":[10,12]}]}`, 200, 0, 1},
		{"null times after times", `{"trajectories":[{"edges":` + edges + `,"times":[10,12],"times":null}]}`, 200, 0, 1},
		{"null depart", `{"trajectories":[{"edges":` + edges + `,"times":[10,12],"depart":null}]}`, 200, 1, 0},
		{"null element keeps zero", `{"trajectories":[{"edges":[` + fmt.Sprint(first) + `,null],"times":[10,12]}]}`, 200, 0, 1},
		{"edge ID past int32", `{"trajectories":[{"edges":[2147483648],"times":[10]}]}`, 400, 0, 0},
		{"edge ID as a fraction", `{"trajectories":[{"edges":[1.0],"times":[10]}]}`, 400, 0, 0},
		{"edge ID with an exponent", `{"trajectories":[{"edges":[1e2],"times":[10]}]}`, 400, 0, 0},
		{"edge ID as a string", `{"trajectories":[{"edges":["1"],"times":[10]}]}`, 400, 0, 0},
		{"time past float64", `{"trajectories":[{"edges":` + edges + `,"times":[10,1e400]}]}`, 400, 0, 0},
		{"string departure", `{"trajectories":[{"edges":` + edges + `,"times":[10,12],"depart":"60"}]}`, 400, 0, 0},
		{"trajectory as an array", `{"trajectories":[[1,2]]}`, 400, 0, 0},
		{"trajectories as an object", `{"trajectories":{"edges":[1]}}`, 400, 0, 0},
		{"trailing data", `{"trajectories":[` + valid + `]} {}`, 400, 0, 0},
		{"stray closing bracket", `{"trajectories":[` + valid + `]}]`, 400, 0, 0},
		{"syntax error", `{"trajectories":[` + valid + `,]}`, 400, 0, 0},
		{"top-level null", `null`, 400, 0, 0},
		{"top-level array", `[` + valid + `]`, 400, 0, 0},
		{"empty body", ``, 400, 0, 0},
		{"empty batch", `{"trajectories":[]}`, 400, 0, 0},
		{"no trajectories", `{}`, 400, 0, 0},
		{"body at the cap", atCap(maxBytes), 200, 1, 0},
		{"body one byte past the cap", atCap(maxBytes + 1), 413, 0, 0},
	} {
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

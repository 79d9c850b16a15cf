package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

// TestIngestAckCountsTrajectories: the gateway acknowledges a body a
// replica accepts with the elements of its last "trajectories" array,
// split into accepted and rejected by the checks a replica makes
// without its graph (a null or empty trip, edges and times of
// different lengths, a negative time), and refuses at the edge what
// every replica would refuse as a whole: a body that is not one JSON
// document, trailing data included, a trajectories member that is not
// an array, a trip that is not an object, an unknown member beside the
// array, an empty batch and a body past the cap.
func TestIngestAckCountsTrajectories(t *testing.T) {
	r1 := fakeReplica(t, "r1", 0)
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: r1.URL}}, maxIngestBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		body               string
		code               int
		accepted, rejected int
	}{
		{`{"trajectories":[{"edges":[1],"times":[2]},null,{}]}`, 200, 1, 2},
		{`{"trajectories":[null]}`, 200, 0, 1},
		{`{"trajectories":[{"edges":[1,2],"times":[2]},{"edges":[1],"times":[2,3]}]}`, 200, 0, 2},
		{`{"trajectories":[{"edges":[1],"times":[-2]},{"edges":[1],"times":[2],"depart":-1},{"edges":[1],"times":[0]}]}`, 200, 1, 2},
		{`{"trajectories":[{"edges":[1],"times":[-2]},{"edges":[1],"times":[null]}]}`, 200, 1, 1},
		{`{"trajectories":[{"edges":[1],"times":[2]},null,3]}`, 400, 0, 0},
		{`{"trajectories":[{}],"extra":{"x":[1]}}`, 400, 0, 0},
		{`{"trajectories":[{},{}],"trajectories":[{}]}`, 200, 0, 1},
		{`{"TRAJECTORIES":[{"EDGES":[4],"Times":[1]}]} ` + "\n", 200, 1, 0},
		{`{"trajectories":[{}],"trajectories":null}`, 400, 0, 0},
		{`{"trajectories":[]}`, 400, 0, 0},
		{`{"trajectories":"x"}`, 400, 0, 0},
		{`[{}]`, 400, 0, 0},
		{`null`, 400, 0, 0},
		{`{"trajectories":[{}]} {}`, 400, 0, 0},
		{`{"trajectories":[{}]`, 400, 0, 0},
		{`{"trajectories":[{}]}` + strings.Repeat(" ", 256), 413, 0, 0},
	} {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Accepted int `json:"accepted"`
			Rejected int `json:"rejected"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		if resp.StatusCode != tc.code || (tc.code == 200 && (ack.Accepted != tc.accepted || ack.Rejected != tc.rejected)) {
			t.Errorf("%q: status %d, accepted %d, rejected %d; want %d, %d, %d", tc.body, resp.StatusCode, ack.Accepted, ack.Rejected, tc.code, tc.accepted, tc.rejected)
		}
	}
}

// TestIngestGatewayAnswersAsTheReplica: the gateway answers every body
// of the replica's wire contract (the table TestIngestWireContract in
// internal/server holds a replica to) with the replica's status, and
// acknowledges each batch a replica takes with all of its trips, split
// as the replica splits them except that a trip only the graph can
// reject is counted accepted; at the cap and one byte past it too.
func TestIngestGatewayAnswersAsTheReplica(t *testing.T) {
	const maxBytes = 4096
	r1 := fakeReplica(t, "r1", 0)
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: r1.URL}}, maxIngestBytes: maxBytes})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	data, err := os.ReadFile("../ingestwire/testdata/contract.tsv")
	if err != nil {
		t.Fatal(err)
	}
	valid := `{"edges":[3,4],"times":[10,12]}`
	fill := strings.NewReplacer("$VALID", valid, "$INVALID", `{"edges":[0],"times":[-3]}`, "$EDGES", `[3,4]`, "$FIRST", `3`)
	type wireCase struct {
		name               string
		body               string
		code               int
		accepted, rejected int
	}
	doc := `{"trajectories":[` + valid + `]}`
	cases := []wireCase{
		{"body at the cap", doc + strings.Repeat(" ", maxBytes-len(doc)), 200, 1, 0},
		{"body one byte past the cap", doc + strings.Repeat(" ", maxBytes+1-len(doc)), 413, 0, 0},
	}
	for line := range strings.Lines(string(data)) {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(strings.TrimSuffix(line, "\n"), "\t")
		if len(f) != 5 {
			t.Fatalf("contract line %q: want 5 tab-separated fields", line)
		}
		var code, accepted, rejected int
		if _, err := fmt.Sscan(f[1]+" "+f[2]+" "+f[3], &code, &accepted, &rejected); err != nil {
			t.Fatalf("contract line %q: %v", line, err)
		}
		cases = append(cases, wireCase{f[0], fill.Replace(f[4]), code, accepted, rejected})
	}
	if len(cases) < 30 {
		t.Fatalf("%d cases, want the contract's 30", len(cases))
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Accepted int `json:"accepted"`
			Rejected int `json:"rejected"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.StatusCode != tc.code || (tc.code == 200 && (ack.Accepted+ack.Rejected != tc.accepted+tc.rejected || ack.Rejected > tc.rejected)) {
			t.Errorf("%s: status %d, accepted %d, rejected %d; the replica answers %d with %d accepted, %d rejected", tc.name, resp.StatusCode, ack.Accepted, ack.Rejected, tc.code, tc.accepted, tc.rejected)
		}
	}
}

package gateway

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestIngestAckCountsTrajectories: the gateway acknowledges a body a
// replica accepts with the number of elements of its last
// "trajectories" array, and refuses at the edge what every replica
// would refuse as a whole: a body that is not one JSON document,
// trailing data included, a trajectories member that is not an array,
// an empty batch and a body past the cap. (Bodies a replica refuses
// for what lies inside the array or beside it, such as an unknown
// field, are left out: the gateway still acknowledges those.)
func TestIngestAckCountsTrajectories(t *testing.T) {
	r1 := fakeReplica(t, "r1", 0)
	gw, err := New(Config{Replicas: []Replica{{ID: "r1", URL: r1.URL}}, maxIngestBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	t.Cleanup(ts.Close)

	for _, tc := range []struct {
		body     string
		code     int
		accepted int
	}{
		{`{"trajectories":[{"edges":[1],"times":[2]},null,{}]}`, 200, 3},
		{`{"trajectories":[{},{}],"trajectories":[{}]}`, 200, 1},
		{`{"TRAJECTORIES":[{}]} ` + "\n", 200, 1},
		{`{"trajectories":[{}],"trajectories":null}`, 400, 0},
		{`{"trajectories":[]}`, 400, 0},
		{`{"trajectories":"x"}`, 400, 0},
		{`[{}]`, 400, 0},
		{`null`, 400, 0},
		{`{"trajectories":[{}]} {}`, 400, 0},
		{`{"trajectories":[{}]`, 400, 0},
		{`{"trajectories":[{}]}` + strings.Repeat(" ", 256), 413, 0},
	} {
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ack)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%q: %v", tc.body, err)
		}
		if resp.StatusCode != tc.code || (tc.code == 200 && ack.Accepted != tc.accepted) {
			t.Errorf("%q: status %d, accepted %d; want %d, %d", tc.body, resp.StatusCode, ack.Accepted, tc.code, tc.accepted)
		}
	}
}

package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"testing"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
	"stochroute/internal/ingestwire"
	"stochroute/internal/israce"
	"stochroute/internal/rng"
	"stochroute/internal/traj"
)

// wireTrajectory and wireRequest are the /ingest body as encoding/json
// decoded it before the walk replaced that decode: the oracle the walk
// is held to.
type wireTrajectory struct {
	Edges  []graph.EdgeID `json:"edges"`
	Times  []float64      `json:"times"`
	Depart float64        `json:"depart"`
}

type wireRequest struct {
	Trajectories []wireTrajectory `json:"trajectories"`
}

// decodeWire is the oracle: a json.Decoder with DisallowUnknownFields
// into wireRequest, followed by nothing but whitespace, and each trip
// copied into a traj.Trajectory as the handler copied it, a nil
// trajectories array staying nil.
func decodeWire(body []byte) ([]traj.Trajectory, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req wireRequest
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("trailing data after JSON body")
	}
	if req.Trajectories == nil {
		return nil, nil
	}
	trs := make([]traj.Trajectory, len(req.Trajectories))
	for i, tr := range req.Trajectories {
		trs[i] = traj.Trajectory{Edges: tr.Edges, Times: tr.Times, Departure: tr.Depart}
	}
	return trs, nil
}

func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzScanIngest holds the /ingest walk to encoding/json on arbitrary
// bytes: ingestwire.Scan accepts exactly the bodies decodeWire accepts,
// its trips are reflect.DeepEqual to the oracle's — nil and empty
// slices told apart, repeated keys and nulls included — and it
// allocates in proportion to the body. The gateway's ingestwire.Count
// gives Scan's error, or its number of trips split by
// Trajectory.Acceptable without a graph.
func FuzzScanIngest(f *testing.F) {
	for _, seed := range []string{
		`{"trajectories":[{"edges":[0,1],"times":[5,6.5],"depart":28920}]}`,
		`{"trajectories":[{"edges":[0,1],"times":[5,6.5],"speed":3}]}`,
		`{"trajectories":[],"extra":1}`,
		`{"TRAJECTORIES":[{"Edges":[3],"TIMES":[1e-7],"DePart":-0}]}`,
		`{"trajectories":[{"edges":[1],"edgeſ":[2]}]}`,
		`{"trajectories":[{"edges":[1],"times":[2],"depart":5}],"trajectories":[{"edges":[3]}]}`,
		`{"trajectories":[{"edges":[1,2,3],"edges":[4],"edges":[null,null,null]}]}`,
		`{"trajectories":[{"edges":[1,2,3],"edges":[4],"edges":[null,null,null,null]}]}`,
		`{"trajectories":[{"edges":[1]}],"trajectories":[],"trajectories":[null]}`,
		`{"trajectories":[{"times":[1.5,2]},{"depart":3}],"trajectories":[null,{"edges":[]}]}`,
		`{"trajectories":[null,{"edges":null,"times":[1]}]}`,
		`{"trajectories":[{"edges":[2147483647,-2147483648]}]}`,
		`{"trajectories":[{"edges":[2147483648]}]}`,
		`{"trajectories":[{"edges":[1.0]}]}`,
		`{"trajectories":[{"edges":[1e2]}]}`,
		`{"trajectories":[{"edges":["1"],"times":[true]}]}`,
		`{"trajectories":[{"times":[1e400]}]}`,
		`{"trajectories":[{"times":[1e-400,-0,0.1,123456789012345678901234567890]}]}`,
		`{"trajectories":[{"depart":"60"}]}`,
		`{"trajectories":[{"depart":{"x":[1,"}"]}}]}`,
		`{"trajectories":[[1,2]]}`,
		`{"trajectories":{"edges":[1]}}`,
		`{"trajectories":null}`,
		`{"trajectories":[{"edges":[1]}]} {}`,
		`{"trajectories":[{"edges":[1]}]}]`,
		` { "trajectories" : [ { "edges" : [ 1 , 2 ] , "times" : [ 3 , 4 ] } ] } `,
		`null`,
		`[{"edges":[1]}]`,
		`"trajectories"`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var trs []traj.Trajectory
		var err error
		alloc := bytesAllocated(func() { trs, err = ingestwire.Scan(body) })
		if !israce.Enabled && alloc > 64*uint64(len(body))+64<<10 {
			t.Fatalf("%d body bytes allocated %d bytes", len(body), alloc)
		}
		want, werr := decodeWire(body)
		if (err == nil) != (werr == nil) {
			t.Fatalf("body %q: walk error %v, encoding/json error %v", body, err, werr)
		}
		acceptable := 0
		for i := range trs {
			if trs[i].Acceptable(nil) {
				acceptable++
			}
		}
		if acc, rej, cerr := ingestwire.Count(body); acc != acceptable || acc+rej != len(trs) || !reflect.DeepEqual(cerr, err) {
			t.Fatalf("body %q: Count %d accepted, %d rejected (%v); Scan %d trips, %d acceptable (%v)", body, acc, rej, cerr, len(trs), acceptable, err)
		}
		if err != nil {
			if e, ok := err.(*httpsvc.Error); !ok || e.Code != http.StatusBadRequest {
				t.Fatalf("body %q: error %v is not a 400", body, err)
			}
			return
		}
		if !reflect.DeepEqual(trs, want) {
			t.Fatalf("body %q: walk %#v, encoding/json %#v", body, trs, want)
		}
	})
}

// TestIngestDecodeAllocs gates what reading an /ingest body costs: a
// 200-trip body is read in one buffer and walked into trips whose Edges
// and Times are one allocation each, so the whole decode stays within 2
// allocations per trip plus a few for the body and the trip array (the
// walk's cursor stays on the stack).
func TestIngestDecodeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const trips = 200
	r := rng.New(7)
	var req wireRequest
	for i := 0; i < trips; i++ {
		n := 1 + r.Intn(60)
		tr := wireTrajectory{Edges: make([]graph.EdgeID, n), Times: make([]float64, n), Depart: r.Float64() * 86400}
		for j := range tr.Edges {
			tr.Edges[j] = graph.EdgeID(r.Intn(50000))
			tr.Times[j] = 1 + 60*r.Float64()
		}
		req.Trajectories = append(req.Trajectories, tr)
	}
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	want, err := decodeWire(body)
	if err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(body)
	rc := io.NopCloser(rd)
	hr := httptest.NewRequest(http.MethodPost, "/ingest", rd)
	var got []traj.Trajectory
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(body)
		hr.Body = rc
		if got, err = readIngest(hr, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the walk's trips differ from encoding/json's")
	}
	t.Logf("/ingest decode: %.2f allocs per trajectory (%d trips, %d-byte body, %.0f allocs)", allocs/trips, trips, len(body), allocs)
	if limit := 2*trips + 7; allocs > float64(limit) {
		t.Errorf("decoding %d trips costs %.0f allocs, want <= %d", trips, allocs, limit)
	}
}

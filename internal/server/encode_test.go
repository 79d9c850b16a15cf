package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"stochroute/internal/graph"
)

// floatEdges are the values where encoding/json's number formatting
// changes form: the zeroes (omitempty), both exponent cutoffs and
// their neighbours, a subnormal, the extremes, and 17-digit mantissas.
var floatEdges = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 100, 90.5,
	1e-6, 9.999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10, 1.234e-100,
	1e20, 1e21, 9.999999999999999e20, -1e21, 1.7e300,
	5e-324, 2.2250738585072014e-308, math.MaxFloat64, math.SmallestNonzeroFloat64,
	0.1 + 0.2, 1.0 / 3, 2.0 / 3, 123456789.12345679, 0.30000000000000004, 1234567890123456.7,
	float64(math.MaxInt64), 1 << 53, 266.2811584472656,
}

// checkSameAsMarshal holds an append encoder to encoding/json's bytes,
// from an empty and from a non-empty destination.
func checkSameAsMarshal(t *testing.T, v any, appendJSON func([]byte) ([]byte, error)) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	got, gotErr := appendJSON(nil)
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%+v: appendJSON error %v, json.Marshal error %v", v, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("appendJSON differs from json.Marshal\n got %s\nwant %s", got, want)
	}
	if got, _ = appendJSON([]byte("prefix")); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("appendJSON onto a prefix = %s, want prefix + %s", got, want)
	}
}

func checkRoute(t *testing.T, resp routeResponse) {
	t.Helper()
	checkSameAsMarshal(t, resp, resp.appendJSON)
}

// randomFloat mixes the shapes real answers have (probabilities,
// seconds, milliseconds) with raw bit patterns and the edge list.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(6) {
	case 0:
		return 0
	case 1:
		return rng.Float64()
	case 2:
		return rng.Float64() * 3600
	case 3:
		return floatEdges[rng.Intn(len(floatEdges))]
	case 4:
		return math.Round(rng.Float64()*1e4) / 1e2
	default:
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
}

func randomInt(rng *rand.Rand) int {
	switch rng.Intn(4) {
	case 0:
		return 0
	case 1:
		return rng.Intn(10)
	case 2:
		return rng.Intn(1 << 20)
	default:
		return int(rng.Int63()) - 1<<62
	}
}

func randomRoute(rng *rand.Rand) routeResponse {
	resp := routeResponse{
		Source:          graph.VertexID(rng.Int31()),
		Dest:            graph.VertexID(rng.Int31n(4096)),
		Budget:          randomFloat(rng),
		Depart:          randomFloat(rng),
		Slice:           rng.Intn(3),
		TimeExpanded:    rng.Intn(2) == 0,
		Found:           rng.Intn(2) == 0,
		Complete:        rng.Intn(2) == 0,
		Prob:            randomFloat(rng),
		MeanSeconds:     randomFloat(rng),
		Expansions:      randomInt(rng),
		GeneratedLabels: randomInt(rng),
		Convolved:       randomInt(rng),
		Estimated:       randomInt(rng),
		ModelEpoch:      rng.Uint64() >> uint(rng.Intn(64)),
		RuntimeMS:       randomFloat(rng),
		Cached:          rng.Intn(2) == 0,
	}
	// nil, empty and filled are three different inputs to omitempty.
	switch rng.Intn(4) {
	case 0:
		resp.Path = []graph.EdgeID{}
	case 1, 2:
		resp.Path = make([]graph.EdgeID, 1+rng.Intn(40))
		for i := range resp.Path {
			resp.Path[i] = graph.EdgeID(rng.Int31n(1 << 18))
		}
	}
	switch rng.Intn(4) {
	case 0:
		resp.SliceSeq = []int{}
	case 1:
		resp.SliceSeq = make([]int, 1+rng.Intn(40))
		for i := range resp.SliceSeq {
			resp.SliceSeq[i] = rng.Intn(4)
		}
	}
	return resp
}

// TestAppendJSONMatchesEncodingJSON is the wire-format proof of the
// append encoder: byte-identical to json.Marshal over seeded random
// answers, every float edge in every float field, every combination
// of the omitempty fields, and encoding/json's error on a non-finite
// value.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 12000; i++ {
		checkRoute(t, randomRoute(rng))
	}

	for _, f := range floatEdges {
		checkRoute(t, routeResponse{Budget: f, Depart: f, Prob: f, MeanSeconds: f, RuntimeMS: f})
		checkRoute(t, routeResponse{Budget: -f, Depart: -f, Prob: -f, MeanSeconds: -f, RuntimeMS: -f})
	}

	// Ten omitempty fields, each absent or present: 1024 combinations.
	for mask := 0; mask < 1<<10; mask++ {
		on := func(bit int) bool { return mask&(1<<bit) != 0 }
		resp := routeResponse{Source: 85, Budget: 90, Found: true, Prob: 0.5, ModelEpoch: 1, RuntimeMS: 0.04}
		if on(0) {
			resp.Depart = 3600
		}
		if on(1) {
			resp.Slice = 2
		}
		resp.TimeExpanded = on(2)
		if on(3) {
			resp.SliceSeq = []int{1, 1, 2}
		}
		if on(4) {
			resp.MeanSeconds = 71.25
		}
		if on(5) {
			resp.Path = []graph.EdgeID{12, 7, 300}
		}
		if on(6) {
			resp.Expansions = 41
		}
		if on(7) {
			resp.GeneratedLabels = 1666
		}
		if on(8) {
			resp.Convolved = 3920
		}
		if on(9) {
			resp.Estimated = 110
		}
		checkRoute(t, resp)
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkRoute(t, routeResponse{Budget: bad})
		checkRoute(t, routeResponse{Depart: bad})
		checkRoute(t, routeResponse{Prob: bad, MeanSeconds: math.Inf(1)})
		checkRoute(t, routeResponse{MeanSeconds: bad})
		checkRoute(t, routeResponse{RuntimeMS: bad})
	}
}

// TestBatchAppendJSONMatchesEncodingJSON: the /route/batch document —
// items with and without errors, error text that needs escaping —
// against json.Marshal of the same value.
func TestBatchAppendJSONMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	errorTexts := []string{"", "", "routing: deadline exceeded", `no "path" <b>&</b> here`, "bad\xffutf8\n\t "}
	for i := 0; i < 500; i++ {
		out := batchResponse{
			Results:   make([]batchItemResponse, 1+rng.Intn(6)),
			CacheHits: rng.Intn(7),
			RuntimeMS: randomFloat(rng),
		}
		for k := range out.Results {
			out.Results[k] = batchItemResponse{routeResponse: randomRoute(rng), Error: errorTexts[rng.Intn(len(errorTexts))]}
		}
		checkSameAsMarshal(t, out, out.appendJSON)
	}
	bad := batchResponse{Results: make([]batchItemResponse, 2), RuntimeMS: 1}
	bad.Results[1].Prob = math.NaN()
	checkSameAsMarshal(t, bad, bad.appendJSON)
	bad.RuntimeMS = math.Inf(1) // the item's NaN is met first
	checkSameAsMarshal(t, bad, bad.appendJSON)
	for _, empty := range []batchResponse{{RuntimeMS: math.Inf(1)}, {CacheHits: 1}, {Results: []batchItemResponse{}}} {
		checkSameAsMarshal(t, empty, empty.appendJSON)
	}
}

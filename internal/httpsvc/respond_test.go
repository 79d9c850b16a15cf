package httpsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"stochroute/internal/israce"
)

// fuzzBody has the shapes of the bodies DecodeJSON serves: the batch's
// queries and the ingest's trajectories.
type fuzzBody struct {
	Queries []struct {
		Source int     `json:"source"`
		Dest   int     `json:"dest"`
		Budget float64 `json:"budget_s"`
		Ok     bool    `json:"time_expanded"`
	} `json:"queries"`
	Trajectories []struct {
		Edges []int32   `json:"edges"`
		Times []float64 `json:"times"`
	} `json:"trajectories"`
	Name string `json:"name"`
}

func decodeBody(body []byte, maxBytes int64) (*fuzzBody, error) {
	r := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(body))
	var v fuzzBody
	err := DecodeJSON(httptest.NewRecorder(), r, maxBytes, &v)
	return &v, err
}

func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeJSON: whatever the body and the cap, DecodeJSON does not
// panic, allocates in proportion to the body, fails with a 400 or a 413
// (the latter only past the cap), decodes no body longer than the cap,
// and decodes the encoding of what it accepts to the same value.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []struct {
		body string
		cap  uint16
	}{
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}`, 1024},
		{`{"trajectories":[{"edges":[0,1],"times":[5,6.5]}]}`, 1024},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9}]}` + strings.Repeat(" ", 64), 60},
		{`{"name":"a"}]`, 64},
		{`{"name":"a"} {"name":"b"}`, 64},
		{`{"nope":1}`, 64},
		{`{"queries":[{"source":1,"dest":2,"budget_s":9},{"source":1,"dest":2,"budget_s":9}]}`, 40},
		{``, 8},
		{`[1,2,3]`, 8},
	} {
		f.Add([]byte(seed.body), seed.cap)
	}
	f.Fuzz(func(t *testing.T, body []byte, limit uint16) {
		maxBytes := int64(limit) + 1
		var v *fuzzBody
		var err error
		alloc := bytesAllocated(func() { v, err = decodeBody(body, maxBytes) })
		if !israce.Enabled && alloc > 64*uint64(len(body))+64<<10 {
			t.Fatalf("%d body bytes allocated %d bytes", len(body), alloc)
		}
		if err != nil {
			var e *Error
			switch {
			case !errors.As(err, &e):
				t.Fatalf("error %v is not an *Error", err)
			case e.Code == http.StatusRequestEntityTooLarge && int64(len(body)) <= maxBytes:
				t.Fatalf("413 for a %d-byte body under a %d-byte cap", len(body), maxBytes)
			case e.Code != http.StatusRequestEntityTooLarge && e.Code != http.StatusBadRequest:
				t.Fatalf("status %d", e.Code)
			}
			return
		}
		if int64(len(body)) > maxBytes {
			t.Fatalf("a %d-byte body decoded under a %d-byte cap", len(body), maxBytes)
		}
		enc, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeBody(enc, int64(len(enc)))
		if err != nil {
			t.Fatalf("decoding the encoding %s: %v", enc, err)
		}
		if !reflect.DeepEqual(v, back) {
			t.Fatalf("decode→encode→decode changed the value: %+v → %+v", v, back)
		}
	})
}

// TestDecodeJSONEndsAtTheBody: only whitespace may follow the value, and
// a body past the cap is a 413 even when its value ends inside it.
func TestDecodeJSONEndsAtTheBody(t *testing.T) {
	for _, tc := range []struct {
		body string
		want int // 0 = accepted
	}{
		{`{"name":"a"}`, 0},
		{"{\"name\":\"a\"} \n\t", 0},
		{`{"name":"a"}]`, http.StatusBadRequest},
		{`{"name":"a"}}`, http.StatusBadRequest},
		{`{"name":"a"} {}`, http.StatusBadRequest},
		{`{"name":"a"}x`, http.StatusBadRequest},
		{`{"name":"a"}` + strings.Repeat(" ", 64), http.StatusRequestEntityTooLarge},
		{`{"name":"` + strings.Repeat("a", 64) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		_, err := decodeBody([]byte(tc.body), 32)
		var e *Error
		switch {
		case tc.want == 0 && err != nil:
			t.Errorf("%q: %v, want accepted", tc.body, err)
		case tc.want != 0 && (!errors.As(err, &e) || e.Code != tc.want):
			t.Errorf("%q: %v, want status %d", tc.body, err, tc.want)
		}
	}
}

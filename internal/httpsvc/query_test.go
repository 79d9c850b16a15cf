package httpsvc

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"stochroute/internal/israce"
)

// queryKeys are the parameter names the hot endpoints look up.
var queryKeys = []string{"source", "dest", "from", "to", "budget", "depart", "time_expanded", "limit_ms", "first", "second"}

// FuzzRawQuery: for any query string, the scanning lookup returns what
// net/url's parse-into-a-map returns for the first value of each key.
func FuzzRawQuery(f *testing.F) {
	for _, seed := range []string{
		"",
		"source=1&dest=2&budget=100",
		"from=57.01%2C9.99&to=57.05,+9.93&budget=6e2",
		"source=1;dest=2&dest=3",
		"source=1&&dest=2&",
		"source",
		"source=",
		"=1&source=2",
		"source=%zz&source=7",
		"s%6Furce=5&dest=%32",
		"sou+rce=1&source=a+b%20c",
		"%zz=1&first=149&second=263",
		"source=1=2&dest==",
		"time_expanded=true&limit_ms=20&depart=3600",
		"source=1&source=2",
		"source=%&dest=%4",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		want, _ := url.ParseQuery(raw) // what parsed is kept, as URL.Query does
		for _, key := range queryKeys {
			if got := rawQuery(raw, key); got != want.Get(key) {
				t.Errorf("rawQuery(%q, %q) = %q, url.ParseQuery says %q", raw, key, got, want.Get(key))
			}
		}
	})
}

// TestParamLookupAllocs: the typed parameter readers cost nothing on a
// query with nothing to decode.
func TestParamLookupAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	r := httptest.NewRequest(http.MethodGet, "/route?source=85&dest=0&budget=90.5&time_expanded=true", nil)
	allocs := testing.AllocsPerRun(200, func() {
		if v, err := IntParam(r, "source", -1); err != nil || v != 85 {
			t.Fatalf("source = %d, %v", v, err)
		}
		if v, err := FloatParam(r, "budget", 0); err != nil || v != 90.5 {
			t.Fatalf("budget = %v, %v", v, err)
		}
		if v, err := BoolParam(r, "time_expanded", false); err != nil || !v {
			t.Fatalf("time_expanded = %v, %v", v, err)
		}
		if v, err := FloatParam(r, "depart", 7); err != nil || v != 7 {
			t.Fatalf("absent depart = %v, %v", v, err)
		}
	})
	if allocs != 0 {
		t.Errorf("four parameter lookups cost %v allocs, want 0", allocs)
	}
}

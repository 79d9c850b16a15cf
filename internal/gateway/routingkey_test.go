package gateway

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// referenceRoutingKey is routingKey as first written: parse the whole
// query into a map, build the "a>b" identity string, hash it. The
// production code may find a cheaper way to the same number; which
// replica owns a query must not move when it does, or every replica's
// warm route cache is cold after the upgrade.
func referenceRoutingKey(r *http.Request) (key uint64, ok bool) {
	q := r.URL.Query()
	switch r.URL.Path {
	case "/pairsum":
		first, second := q.Get("first"), q.Get("second")
		return KeyForString(first + ">" + second), first != "" && second != ""
	case "/sample":
		return KeyForString(r.URL.RawQuery), true
	default:
		src := q.Get("source")
		if src == "" {
			src = q.Get("from")
		}
		dst := q.Get("dest")
		if dst == "" {
			dst = q.Get("to")
		}
		return KeyForString(src + ">" + dst), src != "" && dst != ""
	}
}

func TestRoutingKeyMatchesReference(t *testing.T) {
	targets := []string{
		"/route?source=1&dest=2&budget=100",
		"/route?dest=2&source=1&budget=100",
		"/route?source=85&dest=0&budget=90&depart=3600&time_expanded=true",
		"/route/anytime?source=2047&dest=13&budget=55.5&limit_ms=20",
		// Coordinates, plain and escaped: the key is the decoded value.
		"/route?from=57.01,9.99&to=57.05,9.93&budget=600",
		"/route?from=57.01%2C9.99&to=57.05%2C9.93&budget=600",
		"/route?from=57.01,+9.99&to=57.05,%209.93&budget=600",
		// Mixed forms, and an ID that wins over a coordinate.
		"/route?source=4&to=57.05,9.93&budget=600",
		"/route?from=57.01,9.99&dest=11&budget=600",
		"/route?source=4&from=57.01,9.99&dest=11&to=57.05,9.93&budget=600",
		// An empty ID falls through to the coordinate.
		"/route?source=&from=57.01,9.99&dest=11&budget=600",
		// Duplicates: first value wins. A ;-poisoned or badly escaped
		// pair is dropped, the next one answers.
		"/route?source=1&source=2&dest=3&dest=4",
		"/route?source=1;x&source=2&dest=3",
		"/route?source=%zz&source=2&dest=3",
		"/route?s%6Furce=5&dest=3",
		"/pairsum?first=149&second=263",
		"/pairsum?second=263&first=149&depart=7200",
		"/sample?n=32&lo_km=0.3&hi_km=1.0&seed=7",
		"/sample",
		// Incomplete identities are refused, not hashed.
		"/route?source=1&budget=100",
		"/route?dest=2",
		"/route",
		"/pairsum?first=149",
		"/route?source=1;&dest=2",
	}
	for _, target := range targets {
		r := httptest.NewRequest(http.MethodGet, target, nil)
		want, ok := referenceRoutingKey(r)
		got, err := routingKey(r)
		if !ok {
			if err == nil {
				t.Errorf("%s: hashed to %#x, want a 400 for the missing identity", target, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", target, err)
		} else if got != want {
			t.Errorf("%s: key %#x, want %#x", target, got, want)
		}
	}
	// One literal, so the reference cannot drift together with the
	// hash it calls.
	r := httptest.NewRequest(http.MethodGet, "/route?source=1&dest=2&budget=100", nil)
	if got, _ := routingKey(r); got != KeyForPair(1, 2) {
		t.Errorf("ID pair hashes to %#x, /route/batch hashes the same pair to %#x", got, KeyForPair(1, 2))
	}
}

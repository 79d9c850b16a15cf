package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// budgetAt is the stub /sample's deadline for a query departing at
// depart: it differs in every slice, as a sliced server's does.
func budgetAt(depart float64) float64 { return 100 + depart/100 }

// sent is one routed query as the stub saw it.
type sent struct {
	depart  float64
	budget  float64
	departs bool // the request named its departure
}

// stubServer answers /sample with four queries whose budget_s is
// budgetAt(depart), and records every query /route and /route/batch
// receive.
func stubServer(t *testing.T) (*httptest.Server, func() []sent) {
	t.Helper()
	var mu sync.Mutex
	var got []sent
	mux := http.NewServeMux()
	mux.HandleFunc("/sample", func(w http.ResponseWriter, r *http.Request) {
		depart, _ := strconv.ParseFloat(r.URL.Query().Get("depart"), 64)
		var out sampleResponse
		for i := 0; i < 4; i++ {
			out.Queries = append(out.Queries, sampleQuery{Source: i, Dest: i + 1, BudgetS: budgetAt(depart)})
		}
		json.NewEncoder(w).Encode(out)
	})
	mux.HandleFunc("/route", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		depart, _ := strconv.ParseFloat(q.Get("depart"), 64)
		budget, _ := strconv.ParseFloat(q.Get("budget"), 64)
		mu.Lock()
		got = append(got, sent{depart: depart, budget: budget, departs: q.Has("depart")})
		mu.Unlock()
		io.WriteString(w, "{}")
	})
	mux.HandleFunc("/route/batch", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Queries []batchQuery `json:"queries"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		for _, q := range req.Queries {
			got = append(got, sent{depart: q.Depart, budget: q.Budget, departs: true})
		}
		mu.Unlock()
		fmt.Fprintf(w, `{"results":[%s{}],"cache_hits":0}`, strings.Repeat("{},", len(req.Queries)-1))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, func() []sent {
		mu.Lock()
		defer mu.Unlock()
		return append([]sent(nil), got...)
	}
}

// TestRunSendsEachDepartureItsBudget: under -departs, a request that
// departs at d — a single /route call or every item of a /route/batch —
// carries the budget_s /sample answered for d, never departure 0's.
// Without -departs every request carries departure 0's budget and no
// departure.
func TestRunSendsEachDepartureItsBudget(t *testing.T) {
	sweep := []float64{0, 28800, 61200}
	for _, tc := range []struct {
		name    string
		args    []string
		departs []float64
	}{
		{"single", []string{"-departs", "0,28800,61200"}, sweep},
		{"batch", []string{"-departs", "0,28800,61200", "-batch", "3"}, sweep},
		{"no sweep", nil, []float64{0}},
	} {
		srv, got := stubServer(t)
		args := append([]string{"-addr", srv.URL, "-n", "12", "-c", "2", "-queries", "4"}, tc.args...)
		if err := run(args); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		seen := map[float64]int{}
		for _, s := range got() {
			if s.budget != budgetAt(s.depart) {
				t.Errorf("%s: a query departing at %v s carried budget %v, want its departure's %v", tc.name, s.depart, s.budget, budgetAt(s.depart))
			}
			if tc.args == nil && s.departs {
				t.Errorf("%s: a request named departure %v", tc.name, s.depart)
			}
			seen[s.depart]++
		}
		for _, d := range tc.departs {
			if seen[d] == 0 {
				t.Errorf("%s: no query departed at %v s (saw %v)", tc.name, d, seen)
			}
		}
	}
}

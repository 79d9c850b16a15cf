package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"stochroute/internal/obs"
)

// gatewayStatsView is the part of the gateway's /stats this file reads.
type gatewayStatsView struct {
	Replicas []struct {
		ID    string `json:"id"`
		State string `json:"state"`
		replicaCounts
	} `json:"replicas"`
}

func getGatewayStats(t *testing.T, base string) gatewayStatsView {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v gatewayStatsView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStatsReadsTheSeries: every per-replica count on the gateway's
// /stats is the series /metrics renders under that replica's label,
// and the health gauges follow the state /stats reports. Before the
// comparison, one replica dies: it fails a dispatch (an error and a
// failover), is routed around, and retries and then drops its ingest
// batches, while the survivor answers queries, batch items and
// deliveries.
func TestStatsReadsTheSeries(t *testing.T) {
	live := fakeReplica(t, "a", 0)
	dead := fakeReplica(t, "b", 0)
	_, base := startGateway(t, Config{
		Replicas:       []Replica{{ID: "a", URL: live.URL}, {ID: "b", URL: dead.URL}},
		IngestAttempts: 2,
		IngestBackoff:  time.Millisecond,
	})
	dead.Close() // after the start-up probe round: b is healthy until a dispatch to it fails

	for i := 0; i < 20; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/route?source=%d&dest=%d&budget=60", base, i, i+1))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/route %d: status %d", i, resp.StatusCode)
		}
	}
	post := func(path, body string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d", path, resp.StatusCode)
		}
	}
	post("/route/batch", `{"queries":[{"source":1,"dest":2},{"source":3,"dest":4},{"source":5,"dest":6}]}`)
	for i := 0; i < 2; i++ {
		post("/ingest", `{"trajectories":[{"edges":[0],"times":[5]}]}`)
	}

	// Wait until every enqueued batch is delivered or dropped.
	var st gatewayStatsView
	for deadline := time.Now().Add(10 * time.Second); ; {
		st = getGatewayStats(t, base)
		settled := true
		for _, r := range st.Replicas {
			settled = settled && r.IngestDelivered+r.IngestDropped == r.IngestEnqueued
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ingest fan-out never settled: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, s := range samples {
		series[s.Name+"|"+s.Label("replica")] = s.Value
	}
	byID := map[string]replicaCounts{}
	for _, r := range st.Replicas {
		byID[r.ID] = r.replicaCounts
		check := func(name string, want uint64) {
			t.Helper()
			if got, ok := series[name+"|"+r.ID]; !ok || got != float64(want) {
				t.Errorf("%s{replica=%q} = %v (present %v), /stats says %d", name, r.ID, got, ok, want)
			}
		}
		check("gateway_replica_requests_total", r.Requests)
		check("gateway_replica_latency_seconds_count", r.Requests)
		check("gateway_replica_errors_total", r.Errors)
		check("gateway_failovers_total", r.Failovers)
		check("gateway_batch_items_total", r.BatchItems)
		check("gateway_ingest_enqueued_total", r.IngestEnqueued)
		check("gateway_ingest_delivered_total", r.IngestDelivered)
		check("gateway_ingest_retries_total", r.IngestRetries)
		check("gateway_ingest_dropped_total", r.IngestDropped)
		if got, want := series["gateway_replica_healthy|"+r.ID], oneIf(r.State != "down"); got != want {
			t.Errorf("gateway_replica_healthy{replica=%q} = %v in state %s", r.ID, got, r.State)
		}
		if got, want := series["gateway_replica_degraded|"+r.ID], oneIf(r.State == "degraded"); got != want {
			t.Errorf("gateway_replica_degraded{replica=%q} = %v in state %s", r.ID, got, r.State)
		}
	}

	// Every event above happened, so no check compared two zeros by
	// accident.
	a, b := byID["a"], byID["b"]
	if a.Requests == 0 || a.BatchItems != 3 || a.IngestDelivered != 2 {
		t.Errorf("survivor a: %+v", a)
	}
	if b.Errors == 0 || b.Failovers == 0 || b.IngestRetries == 0 || b.IngestDropped != 2 {
		t.Errorf("dead replica b: %+v", b)
	}
	if st.Replicas[1].State != "down" {
		t.Errorf("dead replica b is %s", st.Replicas[1].State)
	}
}

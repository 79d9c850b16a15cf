package ingest

import (
	"bytes"
	"errors"
	"strconv"
	"strings"
	"testing"

	"stochroute/internal/hybrid"
	"stochroute/internal/obs"
	"stochroute/internal/traj"
)

// TestDegradedWhileDriftPending: a drift firing with no possible
// rebuild (aggregate below the training minimum) must leave the
// subsystem degraded — the slice is knowingly serving a stale model.
func TestDegradedWhileDriftPending(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: 200, MinEdgeObs: 6},
		MinRebuildTrajectories: 1 << 30, // rebuilds can never start
	}, nil)

	if in.Degraded() {
		t.Fatal("fresh ingestor reports degraded")
	}
	in.Ingest(shifted(fx.trajs[:500], 2))
	in.WaitRebuilds()

	st := in.Status()
	if st.DriftEvents == 0 {
		t.Fatalf("drift never fired: %+v", st)
	}
	if !in.Degraded() || !st.Degraded {
		t.Errorf("drift fired with no rebuild possible, yet Degraded() = %v, Status().Degraded = %v",
			in.Degraded(), st.Degraded)
	}
	if !st.Slices[0].DriftPending {
		t.Errorf("slice 0 DriftPending = false after drift with no swap: %+v", st.Slices[0])
	}
}

// TestDegradedClearsOnSwapAndMetrics: the full drift → rebuild → swap
// cycle must end not-degraded, and the ingest metrics must move in
// lockstep with the /stats counters.
func TestDegradedClearsOnSwapAndMetrics(t *testing.T) {
	fx := testFixture(t)
	tgt := &fakeTarget{g: fx.g, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1}
	reg := obs.NewRegistry()
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: 200, MinEdgeObs: 6},
		MinRebuildTrajectories: 150,
		Metrics:                reg,
	}, nil)

	shift := shifted(fx.trajs, 2)
	for lo := 0; lo < 500; lo += 50 {
		in.Ingest(shift[lo : lo+50])
	}
	in.WaitRebuilds()

	st := in.Status()
	if st.Rebuilds == 0 {
		t.Fatalf("no successful rebuild: %+v", st)
	}
	if in.Degraded() || st.Degraded || st.Slices[0].DriftPending {
		t.Errorf("degraded persists after a successful swap: Degraded()=%v Status=%+v",
			in.Degraded(), st.Slices[0])
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	exposition := buf.String()
	samples, err := obs.ParseText(strings.NewReader(exposition))
	if err != nil {
		t.Fatal(err)
	}
	get := func(name, slice string) float64 {
		for _, s := range samples {
			if s.Name == name && s.Label("slice") == slice {
				return s.Value
			}
		}
		t.Fatalf("metric %s{slice=%q} absent from exposition:\n%s", name, slice, exposition)
		return 0
	}
	if got := get("swap_total", "0"); got != float64(st.Rebuilds) {
		t.Errorf(`swap_total{slice="0"} = %v, want %d (Status.Rebuilds)`, got, st.Rebuilds)
	}
	if got := get("ingest_drift_events_total", "0"); got != float64(st.DriftEvents) {
		t.Errorf("drift events metric %v != status %d", got, st.DriftEvents)
	}
	if got := get("ingest_rebuild_seconds_count", "0"); got != float64(st.Rebuilds) {
		t.Errorf("rebuild duration count %v != rebuilds %d", got, st.Rebuilds)
	}
	if got := get("ingest_folded_total", "0"); got != float64(st.Accepted) {
		t.Errorf("folded total %v != accepted %d", got, st.Accepted)
	}
	if got := get("ingest_accepted_total", ""); got != float64(st.Accepted) {
		t.Errorf("accepted metric %v != status %d", got, st.Accepted)
	}
	if !strings.Contains(exposition, "ingest_drift_score") {
		t.Error("drift score gauge missing from exposition")
	}
}

// TestStatusReadsItsSeries: every count Status reports is the series
// /metrics renders, on every slice, including the slices and the
// counters nothing has moved (children are registered up front).
// Seeds, rejections, an age-out, a drift swap on one slice and a
// refused swap on the other all happen before the comparison.
func TestStatusReadsItsSeries(t *testing.T) {
	fx := testFixture(t)
	const K, peak = 2, 1
	tgt := &fakeTarget{g: fx.g, slices: K, kb: map[int]*hybrid.KnowledgeBase{0: fx.kb}, epoch: 1,
		refuse: map[int]error{0: errors.New("swap refused")}}
	reg := obs.NewRegistry()
	in := New(tgt, Config{
		Hybrid:                 lightHybridConfig(fx.width),
		Drift:                  DriftConfig{Window: 200, MinEdgeObs: 6, RebuildEvery: 300},
		MinRebuildTrajectories: 150,
		MaxTrajectories:        200,
		Metrics:                reg,
	}, nil)

	in.Seed(departingIn(fx.trajs[600:650], 0, K))
	in.Ingest([]traj.Trajectory{{}})
	// Slice 0 sees serving-distribution traffic: no drift, an age-out
	// past 200 pending, then a count-triggered rebuild whose swap fails.
	// Slice 1 sees doubled times: drift fires and its rebuild swaps.
	quiet := departingIn(fx.trajs[:300], 0, K)
	stream := departingIn(shifted(fx.trajs[300:600], 2), peak, K)
	for lo := 0; lo < 300; lo += 50 {
		in.Ingest(quiet[lo : lo+50])
		in.Ingest(stream[lo : lo+50])
	}
	in.WaitRebuilds()
	st := in.Status()

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	samples, err := obs.ParseText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	series := map[string]float64{}
	for _, s := range samples {
		series[s.Name+"|"+s.Label("slice")] = s.Value
	}
	check := func(name, slice string, want float64) {
		t.Helper()
		if got, ok := series[name+"|"+slice]; !ok || got != want {
			t.Errorf("%s{slice=%q} = %v (present %v), Status says %v", name, slice, got, ok, want)
		}
	}
	check("ingest_accepted_total", "", float64(st.Accepted))
	check("ingest_rejected_total", "", float64(st.Rejected))
	check("ingest_seeded_total", "", float64(st.Seeded))
	check("ingest_aggregate_prunes_total", "", float64(st.AggregatePrunes))
	check("ingest_rebuild_errors_total", "", float64(st.RebuildErrors))
	folded := 0.0
	for s, sl := range st.Slices {
		l := strconv.Itoa(s)
		check("swap_total", l, float64(sl.Rebuilds))
		check("ingest_rebuild_seconds_count", l, float64(sl.Rebuilds))
		check("ingest_drift_events_total", l, float64(sl.DriftEvents))
		check("ingest_drift_score", l, sl.LastDriftScore)
		folded += series["ingest_folded_total|"+l]
	}
	if want := float64(st.Seeded + st.Accepted); folded != want {
		t.Errorf("Σ ingest_folded_total = %v, want seeded + accepted = %v", folded, want)
	}

	// Every event above happened, so no check compared two zeros by
	// accident.
	if st.Seeded != 50 || st.Accepted != 600 || st.Rejected != 1 || st.AggregatePrunes == 0 || st.RebuildErrors == 0 {
		t.Errorf("scenario did not run as planned: %+v", st)
	}
	if sl := st.Slices[peak]; sl.Rebuilds == 0 || sl.DriftEvents == 0 || sl.LastDriftScore == 0 {
		t.Errorf("slice %d did not drift and swap: %+v", peak, sl)
	}
	if sl := st.Slices[0]; sl.Rebuilds != 0 {
		t.Errorf("slice 0 swapped past a refusing target: %+v", sl)
	}
}

package ingestwire

import (
	"fmt"
	"testing"

	"stochroute/internal/israce"
)

// TestCountAllocs: the gateway's walk of an /ingest body keeps no trip,
// so its allocations do not grow with the trips: one scratch trip's
// arrays grow to the longest trip and are reused by every other. A
// valid 1 500-trip body stays within 7.
func TestCountAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	body := []byte(`{"trajectories":[`)
	for i := 0; i < 1500; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		body = fmt.Appendf(body, `{"edges":[%d,%d,%d],"times":[10.5,12,%d],"depart":%d}`, i, i+1, i+2, i%30, 100+i)
	}
	body = append(body, "]}"...)
	var accepted, rejected int
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if accepted, rejected, err = Count(body); err != nil {
			t.Fatal(err)
		}
	})
	if accepted != 1500 || rejected != 0 {
		t.Fatalf("Count = %d accepted, %d rejected; want 1500, 0", accepted, rejected)
	}
	t.Logf("Count over 1 500 trips: %.0f allocations", allocs)
	if allocs > 7 {
		t.Errorf("Count over a valid 1 500-trip body allocates %.0f times, want at most 7", allocs)
	}
}

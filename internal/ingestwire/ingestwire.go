// Package ingestwire reads the /ingest wire format,
//
//	{"trajectories": [{"edges": [...], "times": [...], "depart": 28920}, ...]}
//
// with one in-place walk shared by the two services that read it: a
// replica keeps the trips it decodes (Scan), the gateway only learns
// how many there are and how many of them a replica would reject
// without looking at its graph (Count). Both judge a body by the same
// rules, so the gateway refuses at the edge exactly the bodies every
// replica would refuse, with the same 400.
package ingestwire

import (
	"encoding/json"
	"fmt"
	"math"

	"stochroute/internal/graph"
	"stochroute/internal/httpsvc"
	"stochroute/internal/traj"
)

// Scan walks an /ingest body in place, once json.Valid has accepted
// it, and builds its trips directly.
//
// It accepts exactly what a json.Decoder with DisallowUnknownFields
// accepts of the body as {trajectories: [{edges []graph.EdgeID, times
// []float64, depart float64}]}, and leaves the trips that decode, copied
// into traj.Trajectory, would hold (FuzzScanIngest in internal/server
// holds it to that decode): unknown fields are refused at both levels,
// keys match under case folding and the last repeated key wins, a null
// field or element keeps what it held (so a null trip is an empty one,
// which the ingestor rejects), and a repeated array is decoded into the
// one before it. Numbers are parsed with the strconv calls
// encoding/json makes: an edge ID is an integer literal in int32 range,
// a time or a departure a finite float64. Every trip owns its Edges and
// Times, one allocation each, sized by counting the array first;
// nothing is shared across trips, so a trip the ingestor keeps pins
// nothing else. Every error is a 400 *httpsvc.Error.
func Scan(body []byte) ([]traj.Trajectory, error) {
	var trs []traj.Trajectory
	var c httpsvc.Cursor
	err := walk(body, &c, func() (err error) {
		trs, err = httpsvc.ScanArray(&c, trs, func(t *traj.Trajectory) error { return scanTrip(&c, t, nil) })
		return err
	})
	if err != nil {
		return nil, err
	}
	return trs, nil
}

// Count walks body as Scan does and returns Scan's error, or how many
// of the trips Scan would return pass the checks a replica makes of a
// trip without its graph (traj.Trajectory.Acceptable with a nil graph)
// and how many fail them. It keeps no trip: every element is decoded
// into one scratch trip, whose arrays grow to the longest seen and are
// cleared, as far as the last trip wrote them, before the next, so a
// null time reads as in Scan's fresh trip. A body that repeats its
// trajectories member, whose later arrays are decoded into the trips
// of the one before, is counted from Scan's trips.
func Count(body []byte) (accepted, rejected int, err error) {
	var scratch traj.Trajectory
	var c httpsvc.Cursor
	members := 0
	err = walk(body, &c, func() error {
		if members++; members > 1 {
			c.Value() // counted from Scan's trips below
			return nil
		}
		isArray, err := c.Open('[')
		if err != nil {
			return fmt.Errorf(": %v", err)
		}
		for n := 0; isArray && c.More(); n++ {
			written := 0
			if err := scanTrip(&c, &scratch, &written); err != nil {
				return fmt.Errorf("[%d]%v", n, err)
			}
			if scratch.Acceptable(nil) {
				accepted++
			} else {
				rejected++
			}
			clear(scratch.Times[:min(written, cap(scratch.Times))])
			scratch = traj.Trajectory{Edges: scratch.Edges[:0], Times: scratch.Times[:0]}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	if members > 1 {
		trs, err := Scan(body)
		if err != nil {
			return 0, 0, err
		}
		accepted, rejected = 0, 0
		for i := range trs {
			if trs[i].Acceptable(nil) {
				accepted++
			} else {
				rejected++
			}
		}
	}
	return accepted, rejected, nil
}

// walk checks body's syntax, puts c at its start and walks its
// top-level object, calling trips with c at each "trajectories" value.
// An unknown member, or an error from trips, is a 400. trips reads the
// caller's cursor, not an argument, so the cursor stays on the
// caller's stack.
func walk(body []byte, c *httpsvc.Cursor, trips func() error) error {
	if !json.Valid(body) {
		return httpsvc.BadRequest("invalid JSON body: %v", httpsvc.SyntaxError(body))
	}
	*c = httpsvc.NewCursor(body)
	isObject, err := c.Open('{')
	if err != nil {
		return httpsvc.BadRequest("invalid JSON body: %v", err)
	}
	for isObject && c.More() {
		k := c.Key()
		if !httpsvc.KeyIs(k, "trajectories") {
			return httpsvc.BadRequest("invalid JSON body: unknown field %s", k)
		}
		if err := trips(); err != nil {
			return httpsvc.BadRequest("invalid JSON body: trajectories%v", err)
		}
	}
	return nil
}

// scanTrip walks one element of the trajectories array into t. A
// non-nil written is raised to the length of every times array decoded.
func scanTrip(c *httpsvc.Cursor, t *traj.Trajectory, written *int) error {
	isObject, err := c.Open('{')
	if err != nil {
		return fmt.Errorf(": %v", err)
	}
	for isObject && c.More() {
		k := c.Key()
		switch {
		case httpsvc.KeyIs(k, "edges"):
			if t.Edges, err = httpsvc.ScanArray(c, t.Edges, func(id *graph.EdgeID) error { return scanEdge(c, id) }); err != nil {
				return fmt.Errorf(".edges%v", err)
			}
		case httpsvc.KeyIs(k, "times"):
			if t.Times, err = httpsvc.ScanArray(c, t.Times, func(f *float64) error { return scanFloat(c, f) }); err != nil {
				return fmt.Errorf(".times%v", err)
			}
			if written != nil {
				*written = max(*written, len(t.Times))
			}
		case httpsvc.KeyIs(k, "depart"):
			if err = scanFloat(c, &t.Departure); err != nil {
				return fmt.Errorf(".depart%v", err)
			}
		default:
			return fmt.Errorf(": unknown field %s", k)
		}
	}
	return nil
}

// scanEdge reads an edge ID: null keeps *id, an integer literal in
// int32 range replaces it, anything else is an error.
func scanEdge(c *httpsvc.Cursor, id *graph.EdgeID) error {
	v := c.Value()
	if v[0] == 'n' {
		return nil
	}
	n, ok := httpsvc.Integer(v)
	if !ok || n < math.MinInt32 || n > math.MaxInt32 {
		return fmt.Errorf(": want an int32 edge ID, got %s", httpsvc.Describe(v))
	}
	*id = graph.EdgeID(n)
	return nil
}

// scanFloat reads a time or a departure: null keeps *f, a number
// strconv.ParseFloat reads as a finite float64 replaces it, anything
// else is an error.
func scanFloat(c *httpsvc.Cursor, f *float64) error {
	v := c.Value()
	if v[0] == 'n' {
		return nil
	}
	x, ok := httpsvc.Float(v)
	if !ok {
		return fmt.Errorf(": want a finite float64, got %s", httpsvc.Describe(v))
	}
	*f = x
	return nil
}

package traj

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"stochroute/internal/graph"
)

// encodeSRT1 hand-assembles a file image in the retired SRT1 format —
// what the reader must refuse by name.
func encodeSRT1(t *testing.T, trs []Trajectory) []byte {
	t.Helper()
	var buf bytes.Buffer
	le := binary.LittleEndian
	buf.WriteString("SRT1")
	binary.Write(&buf, le, uint32(len(trs)))
	for _, tr := range trs {
		binary.Write(&buf, le, uint32(len(tr.Edges)))
		for j, e := range tr.Edges {
			binary.Write(&buf, le, uint32(e))
			binary.Write(&buf, le, tr.Times[j])
		}
	}
	return buf.Bytes()
}

// encodeSRT2 serialises through the production writer.
func encodeSRT2(t *testing.T, trs []Trajectory) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTrajectories(&buf, trs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireSameTrajectories(t *testing.T, got, want []Trajectory) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d trajectories, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Departure != want[i].Departure {
			t.Fatalf("trajectory %d: departure %v, want %v", i, got[i].Departure, want[i].Departure)
		}
		if len(got[i].Edges) != len(want[i].Edges) {
			t.Fatalf("trajectory %d: %d edges, want %d", i, len(got[i].Edges), len(want[i].Edges))
		}
		for j := range want[i].Edges {
			if got[i].Edges[j] != want[i].Edges[j] || got[i].Times[j] != want[i].Times[j] {
				t.Fatalf("trajectory %d hop %d differs", i, j)
			}
		}
	}
}

// TestReadTrajectoryStreamMixedCodecs: a stream of concatenated
// segments — the shape of `cat monday.srt tuesday.srt` — decodes fully,
// in order, with every departure preserved.
func TestReadTrajectoryStreamMixedCodecs(t *testing.T) {
	a := []Trajectory{
		{Edges: []graph.EdgeID{3, 7}, Times: []float64{4.5, 6.0}},
		{Edges: []graph.EdgeID{0}, Times: []float64{2.0}, Departure: 120},
	}
	b := []Trajectory{
		{Edges: []graph.EdgeID{1, 2}, Times: []float64{3.0, 5.5}, Departure: 28800},
	}
	c := []Trajectory{
		{Edges: []graph.EdgeID{9}, Times: []float64{7.25}, Departure: 61200},
	}

	for _, tc := range []struct {
		name     string
		segments [][]byte
		want     []Trajectory
	}{
		{"single", [][]byte{encodeSRT2(t, b)}, b},
		{"two", [][]byte{encodeSRT2(t, a), encodeSRT2(t, b)}, append(append([]Trajectory{}, a...), b...)},
		{"three", [][]byte{encodeSRT2(t, b), encodeSRT2(t, a), encodeSRT2(t, c)},
			append(append(append([]Trajectory{}, b...), a...), c...)},
		{"empty segment between", [][]byte{encodeSRT2(t, a), encodeSRT2(t, nil), encodeSRT2(t, c)},
			append(append([]Trajectory{}, a...), c...)},
	} {
		stream := bytes.Join(tc.segments, nil)
		got, err := ReadTrajectoryStream(bytes.NewReader(stream), nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireSameTrajectories(t, got, tc.want)
	}
}

// TestReadTrajectoryStreamRejectsSRT1: the retired format fails with
// the error that names it and the command that regenerates the file —
// as the whole file or as any segment of a stream — never with "bad
// magic" and never by parsing SRT1 bytes as something else.
func TestReadTrajectoryStreamRejectsSRT1(t *testing.T) {
	old := []Trajectory{{Edges: []graph.EdgeID{3, 7}, Times: []float64{4.5, 6.0}}, {Edges: []graph.EdgeID{0}, Times: []float64{2.0}}}
	cur := []Trajectory{{Edges: []graph.EdgeID{1}, Times: []float64{3.0}, Departure: 100}}
	for name, stream := range map[string][]byte{
		"whole file":     encodeSRT1(t, old),
		"magic only":     []byte("SRT1"),
		"after an SRT2":  append(encodeSRT2(t, cur), encodeSRT1(t, old)...),
		"before an SRT2": append(encodeSRT1(t, old), encodeSRT2(t, cur)...),
	} {
		got, err := ReadTrajectoryStream(bytes.NewReader(stream), nil)
		if !errors.Is(err, ErrSRT1Retired) {
			t.Errorf("%s: err = %v, want ErrSRT1Retired", name, err)
		}
		if got != nil {
			t.Errorf("%s: returned %d trajectories beside the error", name, len(got))
		}
	}
	for _, want := range []string{"SRT1", "cmd/gentraj", "SRT2"} {
		if !strings.Contains(ErrSRT1Retired.Error(), want) {
			t.Errorf("retirement error %q does not mention %s", ErrSRT1Retired, want)
		}
	}
}

// TestReadTrajectoryStreamErrors: empty streams, mid-stream garbage and
// truncated trailing segments all fail loudly instead of returning a
// silently partial read.
func TestReadTrajectoryStreamErrors(t *testing.T) {
	one := []Trajectory{{Edges: []graph.EdgeID{3}, Times: []float64{4.5}, Departure: 30}}

	if _, err := ReadTrajectoryStream(bytes.NewReader(nil), nil); err == nil {
		t.Error("empty stream should error")
	}
	garbage := append(encodeSRT2(t, one), []byte("JUNK")...)
	if _, err := ReadTrajectoryStream(bytes.NewReader(garbage), nil); err == nil {
		t.Error("trailing garbage should error")
	}
	// Every strict prefix of a two-segment stream that does not end on
	// the segment boundary is a truncated file.
	first := encodeSRT2(t, one)
	full := append(append([]byte{}, first...), encodeSRT2(t, one)...)
	for n := 1; n < len(full); n++ {
		if n == len(first) {
			continue
		}
		if _, err := ReadTrajectoryStream(bytes.NewReader(full[:n]), nil); err == nil {
			t.Errorf("stream truncated to %d of %d bytes should error", n, len(full))
		}
	}
}

// TestReadTrajectoryStreamBounds: every bound the decoder holds against
// untrusted bytes — counts and lengths it would otherwise allocate for,
// non-finite or negative departures, times outside [0, MaxTravelTime]
// (whose grid step the observation store could not hold), edges outside
// the graph.
func TestReadTrajectoryStreamBounds(t *testing.T) {
	le := binary.LittleEndian
	// image assembles an SRT2 file claiming n trajectories, followed by
	// one trajectory with the given departure, claimed length, edge and
	// time.
	image := func(n uint32, depart float64, m, edge uint32, tm float64) []byte {
		var buf bytes.Buffer
		buf.WriteString("SRT2")
		binary.Write(&buf, le, n)
		binary.Write(&buf, le, depart)
		binary.Write(&buf, le, m)
		binary.Write(&buf, le, edge)
		binary.Write(&buf, le, tm)
		return buf.Bytes()
	}
	g := testWorld(t, nil).Graph()
	for _, tm := range []float64{2.5, MaxTravelTime} {
		if _, err := ReadTrajectoryStream(bytes.NewReader(image(1, 60, 1, 0, tm)), g); err != nil {
			t.Fatalf("the well-formed image with time %v must decode: %v", tm, err)
		}
	}
	for _, tc := range []struct {
		name string
		img  []byte
		want string
	}{
		{"count", image(1<<26+1, 60, 1, 0, 2.5), "implausible trajectory count"},
		{"length", image(1, 60, 1<<20+1, 0, 2.5), "implausible trajectory length"},
		{"NaN departure", image(1, math.NaN(), 1, 0, 2.5), "invalid departure"},
		{"infinite departure", image(1, math.Inf(1), 1, 0, 2.5), "invalid departure"},
		{"negative departure", image(1, -1, 1, 0, 2.5), "invalid departure"},
		{"NaN time", image(1, 60, 1, 0, math.NaN()), "invalid time"},
		{"infinite time", image(1, 60, 1, 0, math.Inf(1)), "invalid time"},
		{"negative time", image(1, 60, 1, 0, -2.5), "invalid time"},
		{"time past MaxTravelTime", image(1, 60, 1, 0, math.Nextafter(MaxTravelTime, math.Inf(1))), "invalid time"},
		{"time past the int32 grid", image(1, 60, 1, 0, 1e10), "invalid time"},
		{"edge outside graph", image(1, 60, 1, uint32(g.NumEdges()), 2.5), "outside graph"},
		{"edge past int32", image(1, 60, 1, 1<<31, 2.5), "outside graph"},
	} {
		_, err := ReadTrajectoryStream(bytes.NewReader(tc.img), g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

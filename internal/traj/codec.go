package traj

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"stochroute/internal/graph"
)

// Binary trajectory file format, so cmd/gentraj output can feed
// cmd/train, cmd/route, cmd/serve and cmd/replay. SRT2 is the one
// format written and read:
//
//	magic  [4]byte "SRT2"
//	n      uint32  trajectory count
//	per trajectory: depart float64; m uint32; m × (edge uint32, time float64)
//
// depart is the trip's departure in seconds since local midnight.
var trajMagic = [4]byte{'S', 'R', 'T', '2'}

// ErrSRT1Retired is what reading a file of the retired SRT1 format (no
// departure timestamps; no tool has written it since SRT2) fails with.
var ErrSRT1Retired = errors.New("traj: SRT1 trajectory files are retired; regenerate the file with cmd/gentraj, which writes SRT2")

// WriteTrajectories serialises trajectories in the SRT2 format.
func WriteTrajectories(w io.Writer, trs []Trajectory) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(trajMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(trs))); err != nil {
		return err
	}
	for i := range trs {
		tr := &trs[i]
		if len(tr.Edges) != len(tr.Times) {
			return fmt.Errorf("traj: trajectory %d has mismatched edges/times", i)
		}
		if math.IsNaN(tr.Departure) || math.IsInf(tr.Departure, 0) || tr.Departure < 0 {
			return fmt.Errorf("traj: trajectory %d has invalid departure %v", i, tr.Departure)
		}
		if err := binary.Write(bw, binary.LittleEndian, tr.Departure); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(tr.Edges))); err != nil {
			return err
		}
		for j, e := range tr.Edges {
			if err := binary.Write(bw, binary.LittleEndian, uint32(e)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, tr.Times[j]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadTrajectoryStream deserialises a trajectory file, or a stream of
// several back to back (e.g. `cat monday.srt tuesday.srt`), until EOF,
// checking every trajectory with Validate against g (pass nil to check
// the times only). Trips keep stream
// order across segment boundaries. A truncated or corrupt segment — or
// one in the retired SRT1 format (ErrSRT1Retired) — fails the whole
// read.
func ReadTrajectoryStream(r io.Reader, g *graph.Graph) ([]Trajectory, error) {
	br := bufio.NewReader(r)
	var out []Trajectory
	for seg := 0; ; seg++ {
		if _, err := br.Peek(1); err == io.EOF {
			if seg == 0 {
				// An empty stream is not a trajectory file.
				return nil, fmt.Errorf("traj: read magic: %w", io.ErrUnexpectedEOF)
			}
			return out, nil
		} else if err != nil {
			return nil, err
		}
		trs, err := readSegment(br, g)
		if err != nil {
			return nil, fmt.Errorf("traj: stream segment %d: %w", seg, err)
		}
		out = append(out, trs...)
	}
}

// readSegment decodes one SRT2 file image from br. The counts in a
// header are only claims: nothing is reserved for them, and the result
// grows as the bytes behind them arrive.
func readSegment(br *bufio.Reader, g *graph.Graph) ([]Trajectory, error) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("traj: read magic: %w", err)
	}
	switch magic {
	case trajMagic:
	case [4]byte{'S', 'R', 'T', '1'}:
		return nil, ErrSRT1Retired
	default:
		return nil, errors.New("traj: bad magic (not an SRT2 file)")
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<26 {
		return nil, fmt.Errorf("traj: implausible trajectory count %d", n)
	}
	var out []Trajectory
	var rec [12]byte // a trajectory's (depart, m), then each (edge, time)
	le := binary.LittleEndian
	for i := uint32(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("traj: trajectory %d header: %w", i, err)
		}
		tr := Trajectory{Departure: math.Float64frombits(le.Uint64(rec[:]))}
		m := le.Uint32(rec[8:])
		if m > 1<<20 {
			return nil, fmt.Errorf("traj: implausible trajectory length %d", m)
		}
		for ; m > 0; m-- {
			if _, err := io.ReadFull(br, rec[:]); err != nil {
				return nil, err
			}
			tr.Edges = append(tr.Edges, graph.EdgeID(le.Uint32(rec[:])))
			tr.Times = append(tr.Times, math.Float64frombits(le.Uint64(rec[4:])))
		}
		if err := tr.Validate(g); err != nil {
			return nil, fmt.Errorf("trajectory %d: %w", i, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

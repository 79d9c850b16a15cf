package ml

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Binary model format ("SRML"): enough structure to rebuild an MLP with
// its weights, plus standalone helpers for scalers and logistic models.
//
//	magic    [4]byte "SRML"
//	nLayers  uint32
//	per layer: kind uint8 (0 dense, 1 relu);
//	           dense: in uint32, out uint32, W (in*out f64), B (out f64)
//
// The layers alternate dense, relu, dense, …, dense: a relu between each
// two dense layers, none first or last, so nLayers is odd. That is
// Network's one shape, and the only sequence the reader accepts; any
// other kind byte, two dense layers or two relus in a row, and an even
// count are refused.
var mlMagic = [4]byte{'S', 'R', 'M', 'L'}

// The layer kind bytes.
const (
	kindDense = 0
	kindReLU  = 1
)

// WriteNetwork serialises net. A network without layers is refused: the
// format has no encoding for it that the reader accepts.
func WriteNetwork(w io.Writer, net *Network) error {
	if len(net.Layers) == 0 {
		return errors.New("ml: WriteNetwork on a network without layers")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(mlMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(2*len(net.Layers)-1)); err != nil {
		return err
	}
	for i, d := range net.Layers {
		if i > 0 {
			if err := bw.WriteByte(kindReLU); err != nil {
				return err
			}
		}
		if err := bw.WriteByte(kindDense); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(d.W.Rows)); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, uint32(d.W.Cols)); err != nil {
			return err
		}
		if err := writeFloats(bw, d.W.Data); err != nil {
			return err
		}
		if err := writeFloats(bw, d.B.Data); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadNetwork deserialises a network written by WriteNetwork.
func ReadNetwork(r io.Reader) (*Network, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("ml: read magic: %w", err)
	}
	if magic != mlMagic {
		return nil, errors.New("ml: bad magic (not an SRML file)")
	}
	var nLayers uint32
	if err := binary.Read(br, binary.LittleEndian, &nLayers); err != nil {
		return nil, err
	}
	// A network here has a handful of layers: a larger count is refused
	// before any layer is read.
	if nLayers > 1<<10 {
		return nil, fmt.Errorf("ml: implausible layer count %d", nLayers)
	}
	if nLayers%2 == 0 {
		return nil, fmt.Errorf("ml: %d layers: want dense layers with a relu between each two, an odd count", nLayers)
	}
	net := &Network{}
	for i := uint32(0); i < nLayers; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("ml: read layer %d kind: %w", i, err)
		}
		want := byte(kindDense)
		if i%2 == 1 {
			want = kindReLU
		}
		if kind != want {
			return nil, fmt.Errorf("ml: layer %d has kind %d, want %d (dense layers with a relu between each two)", i, kind, want)
		}
		if kind == kindReLU {
			continue
		}
		var in, out uint32
		if err := binary.Read(br, binary.LittleEndian, &in); err != nil {
			return nil, err
		}
		if err := binary.Read(br, binary.LittleEndian, &out); err != nil {
			return nil, err
		}
		if in == 0 || out == 0 || uint64(in)*uint64(out) > 1<<24 {
			return nil, fmt.Errorf("ml: implausible dense dims %dx%d", in, out)
		}
		if k := len(net.Layers); k > 0 && int(in) != net.Layers[k-1].W.Cols {
			return nil, fmt.Errorf("ml: layer %d takes %d inputs, but the layer before it has %d outputs", i, in, net.Layers[k-1].W.Cols)
		}
		w, err := readFloats(br, int(in*out))
		if err != nil {
			return nil, err
		}
		b, err := readFloats(br, int(out))
		if err != nil {
			return nil, err
		}
		net.Layers = append(net.Layers, &Dense{
			W: &Matrix{Rows: int(in), Cols: int(out), Data: w}, B: &Matrix{Rows: 1, Cols: int(out), Data: b},
		})
	}
	return net, nil
}

// WriteScaler serialises a StandardScaler.
func WriteScaler(w io.Writer, s *StandardScaler) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s.Mean))); err != nil {
		return err
	}
	if err := writeFloats(w, s.Mean); err != nil {
		return err
	}
	return writeFloats(w, s.Std)
}

// ReadScaler deserialises a StandardScaler.
func ReadScaler(r io.Reader) (*StandardScaler, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("ml: implausible scaler width %d", n)
	}
	mean, err := readFloats(r, int(n))
	if err != nil {
		return nil, err
	}
	std, err := readFloats(r, int(n))
	if err != nil {
		return nil, err
	}
	return &StandardScaler{Mean: mean, Std: std}, nil
}

// WriteLogReg serialises a logistic regression.
func WriteLogReg(w io.Writer, m *LogisticRegression) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(m.W))); err != nil {
		return err
	}
	if err := writeFloats(w, m.W); err != nil {
		return err
	}
	return writeFloats(w, []float64{m.B})
}

// ReadLogReg deserialises a logistic regression.
func ReadLogReg(r io.Reader) (*LogisticRegression, error) {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("ml: implausible logreg width %d", n)
	}
	w, err := readFloats(r, int(n)+1) // the weights, then the bias
	if err != nil {
		return nil, err
	}
	return &LogisticRegression{W: w[:n:n], B: w[n]}, nil
}

func writeFloats(w io.Writer, fs []float64) error {
	buf := make([]byte, 8*len(fs))
	for i, f := range fs {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(f))
	}
	_, err := w.Write(buf)
	return err
}

// readFloats reads n float64s. n comes from a header, so it is only a
// claim: the result grows as the bytes behind it arrive.
func readFloats(r io.Reader, n int) ([]float64, error) {
	var fs []float64
	var b [8]byte
	for len(fs) < n {
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return nil, err
		}
		fs = append(fs, math.Float64frombits(binary.LittleEndian.Uint64(b[:])))
	}
	return fs, nil
}

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
//	per layer: kind uint8 (0 dense, 1 relu, 2 tanh);
//	           dense: in uint32, out uint32, W (in*out f64), B (out f64)
var mlMagic = [4]byte{'S', 'R', 'M', 'L'}

// WriteNetwork serialises net.
func WriteNetwork(w io.Writer, net *Network) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(mlMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(net.Layers))); err != nil {
		return err
	}
	for _, l := range net.Layers {
		switch layer := l.(type) {
		case *Dense:
			if err := bw.WriteByte(0); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(layer.W.Rows)); err != nil {
				return err
			}
			if err := binary.Write(bw, binary.LittleEndian, uint32(layer.W.Cols)); err != nil {
				return err
			}
			if err := writeFloats(bw, layer.W.Data); err != nil {
				return err
			}
			if err := writeFloats(bw, layer.B.Data); err != nil {
				return err
			}
		case *ReLU:
			if err := bw.WriteByte(1); err != nil {
				return err
			}
		case *Tanh:
			if err := bw.WriteByte(2); err != nil {
				return err
			}
		default:
			return fmt.Errorf("ml: WriteNetwork cannot serialise layer %T", l)
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
	// A network here has a handful of layers. The bound keeps a file of
	// one-byte activation layers from allocating more than in proportion
	// to its size: each costs a layer value and a slot in Layers.
	if nLayers > 1<<10 {
		return nil, fmt.Errorf("ml: implausible layer count %d", nLayers)
	}
	net := &Network{}
	for i := uint32(0); i < nLayers; i++ {
		kind, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("ml: read layer %d kind: %w", i, err)
		}
		switch kind {
		case 0:
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
		case 1:
			net.Layers = append(net.Layers, &ReLU{})
		case 2:
			net.Layers = append(net.Layers, &Tanh{})
		default:
			return nil, fmt.Errorf("ml: unknown layer kind %d", kind)
		}
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

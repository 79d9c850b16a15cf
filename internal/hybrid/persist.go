package hybrid

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"stochroute/internal/ml"
)

// Binary model file format. The knowledge bases are not stored — they
// are derived data, rebuilt from the graph and trajectory files in
// seconds — so a model file stays small and can be attached to any
// compatible knowledge base via AttachKB.
//
// SRH2 holds a time-sliced ModelSet: magic, K uint32, then K model
// bodies (hyper-parameters + learned weights), one per slice. A
// time-homogeneous model is the set with K = 1.
var modelSetMagic = [4]byte{'S', 'R', 'H', '2'}

// ErrSRHMRetired is what reading a file of the retired single-model
// SRHM format fails with.
var ErrSRHMRetired = errors.New("hybrid: SRHM model files are retired; retrain with cmd/train, which writes SRH2")

// writeModelBody serialises one model's trained components.
func writeModelBody(bw *bufio.Writer, m *Model) error {
	if m.Estimator == nil || m.Classifier == nil {
		return errors.New("hybrid: WriteModelSet on incomplete model")
	}
	le := binary.LittleEndian
	hdr := []any{
		m.Estimator.Width,
		uint32(m.MaxBuckets),
		uint8(m.Mode),
		uint32(m.Estimator.Cfg.Bands),
		uint32(m.Estimator.Cfg.CondBuckets),
		m.Classifier.Threshold,
	}
	for _, v := range hdr {
		if err := binary.Write(bw, le, v); err != nil {
			return err
		}
	}
	if err := ml.WriteNetwork(bw, m.Estimator.Net); err != nil {
		return err
	}
	if err := ml.WriteScaler(bw, m.Estimator.Scaler); err != nil {
		return err
	}
	if err := ml.WriteLogReg(bw, m.Classifier.LR); err != nil {
		return err
	}
	return ml.WriteScaler(bw, m.Classifier.Scaler)
}

// readModelBody deserialises one model body written by writeModelBody.
func readModelBody(br *bufio.Reader) (*Model, error) {
	le := binary.LittleEndian
	var width, threshold float64
	var maxBuckets, bands, condBuckets uint32
	var mode uint8
	if err := binary.Read(br, le, &width); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &maxBuckets); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &mode); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &bands); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &condBuckets); err != nil {
		return nil, err
	}
	if err := binary.Read(br, le, &threshold); err != nil {
		return nil, err
	}
	if bands == 0 || bands > 64 || condBuckets == 0 || condBuckets > 4096 {
		return nil, fmt.Errorf("hybrid: implausible estimator shape %dx%d", bands, condBuckets)
	}
	net, err := ml.ReadNetwork(br)
	if err != nil {
		return nil, fmt.Errorf("hybrid: estimator network: %w", err)
	}
	estScaler, err := ml.ReadScaler(br)
	if err != nil {
		return nil, fmt.Errorf("hybrid: estimator scaler: %w", err)
	}
	lr, err := ml.ReadLogReg(br)
	if err != nil {
		return nil, fmt.Errorf("hybrid: classifier: %w", err)
	}
	clfScaler, err := ml.ReadScaler(br)
	if err != nil {
		return nil, fmt.Errorf("hybrid: classifier scaler: %w", err)
	}
	cfg := EstimatorConfig{Bands: int(bands), CondBuckets: int(condBuckets)}
	return &Model{
		Estimator:  &Estimator{Cfg: cfg, Net: net, Scaler: estScaler, Width: width},
		Classifier: &Classifier{LR: lr, Scaler: clfScaler, Threshold: threshold},
		Mode:       ClassifierMode(mode),
		MaxBuckets: int(maxBuckets),
	}, nil
}

// WriteModelSet serialises a model set in the SRH2 format.
func WriteModelSet(w io.Writer, ms *ModelSet) error {
	if ms == nil || ms.K() == 0 {
		return errors.New("hybrid: WriteModelSet on empty set")
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(modelSetMagic[:]); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(ms.K())); err != nil {
		return err
	}
	for s := 0; s < ms.K(); s++ {
		if err := writeModelBody(bw, ms.At(s)); err != nil {
			return fmt.Errorf("hybrid: slice %d: %w", s, err)
		}
	}
	return bw.Flush()
}

// ReadModelSet deserialises a model set written by WriteModelSet. The
// returned models have no knowledge bases; attach one per slice before
// routing. A file in the retired SRHM format fails with ErrSRHMRetired.
func ReadModelSet(r io.Reader) (*ModelSet, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("hybrid: read magic: %w", err)
	}
	switch magic {
	case modelSetMagic:
	case [4]byte{'S', 'R', 'H', 'M'}:
		return nil, ErrSRHMRetired
	default:
		return nil, errors.New("hybrid: bad magic (not an SRH2 file)")
	}
	var k uint32
	if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
		return nil, err
	}
	if k == 0 || k > 256 {
		return nil, fmt.Errorf("hybrid: implausible slice count %d", k)
	}
	models := make([]*Model, k)
	for s := uint32(0); s < k; s++ {
		m, err := readModelBody(br)
		if err != nil {
			return nil, fmt.Errorf("hybrid: slice %d: %w", s, err)
		}
		models[s] = m
	}
	return NewModelSet(models)
}

// AttachKB binds a (re)built knowledge base to a loaded model. It
// errors if the grid widths disagree.
func (m *Model) AttachKB(kb *KnowledgeBase) error {
	if m.Estimator != nil && kb.Width != m.Estimator.Width {
		return fmt.Errorf("hybrid: model width %v != knowledge base width %v", m.Estimator.Width, kb.Width)
	}
	m.KB = kb
	return nil
}

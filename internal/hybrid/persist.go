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
// SRH3 holds a time-sliced ModelSet: magic, K uint32, then K model
// bodies, one per slice. A body is a bodyHeader (the hyper-parameters
// and the training recipe the weights do not hold) and then the learned
// weights. A time-homogeneous model is the set with K = 1.
var modelSetMagic = [4]byte{'S', 'R', 'H', '3'}

// Retired model formats: what reading one fails with.
var (
	ErrSRHMRetired = errors.New("hybrid: SRHM model files are retired; retrain with cmd/train, which writes SRH3")
	ErrSRH2Retired = errors.New("hybrid: SRH2 model files are retired (they carry no training recipe); retrain with cmd/train, which writes SRH3")
)

// bodyHeader is the fixed-size head of one model body, little-endian
// and unpadded: the estimator's grid and shape, the routing cap and
// classifier settings, and the rest of the model's Recipe.
type bodyHeader struct {
	Width                 float64
	MaxBuckets            uint32
	Mode                  uint8
	Bands, CondBuckets    uint32
	Threshold             float64
	MinPairObs            uint32
	TrainPairs, TestPairs uint32
	PrefixRows            uint32
	Epochs, Patience      uint32
}

// writeModelBody serialises one model's trained components.
func writeModelBody(bw *bufio.Writer, m *Model) error {
	if m.Estimator == nil || m.Classifier == nil {
		return errors.New("hybrid: WriteModelSet on incomplete model")
	}
	if _, err := m.Recipe(); err != nil {
		return err
	}
	est, p := m.Estimator, m.protocol
	hdr := bodyHeader{
		Width:       est.Width,
		MaxBuckets:  uint32(m.MaxBuckets),
		Mode:        uint8(m.Mode),
		Bands:       uint32(est.Cfg.Bands),
		CondBuckets: uint32(est.Cfg.CondBuckets),
		Threshold:   m.Classifier.Threshold,
		MinPairObs:  uint32(p.minPairObs),
		TrainPairs:  uint32(p.trainPairs),
		TestPairs:   uint32(p.testPairs),
		PrefixRows:  uint32(p.prefixRows),
		Epochs:      uint32(est.Cfg.Train.Epochs),
		Patience:    uint32(est.Cfg.Train.Patience),
	}
	if err := binary.Write(bw, binary.LittleEndian, &hdr); err != nil {
		return err
	}
	if err := ml.WriteNetwork(bw, est.Net); err != nil {
		return err
	}
	if err := ml.WriteScaler(bw, est.Scaler); err != nil {
		return err
	}
	if err := ml.WriteLogReg(bw, m.Classifier.LR); err != nil {
		return err
	}
	return ml.WriteScaler(bw, m.Classifier.Scaler)
}

// readModelBody deserialises one model body written by writeModelBody.
func readModelBody(br *bufio.Reader) (*Model, error) {
	var hdr bodyHeader
	if err := binary.Read(br, binary.LittleEndian, &hdr); err != nil {
		return nil, err
	}
	if hdr.Bands == 0 || hdr.Bands > 64 || hdr.CondBuckets == 0 || hdr.CondBuckets > 4096 {
		return nil, fmt.Errorf("hybrid: implausible estimator shape %dx%d", hdr.Bands, hdr.CondBuckets)
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
	cfg := EstimatorConfig{Bands: int(hdr.Bands), CondBuckets: int(hdr.CondBuckets), Train: ml.DefaultTrainConfig()}
	cfg.Train.Epochs, cfg.Train.Patience = int(hdr.Epochs), int(hdr.Patience)
	if cfg.Hidden, err = checkShape(cfg, net, estScaler, lr, clfScaler); err != nil {
		return nil, err
	}
	m := &Model{
		Estimator:  &Estimator{Cfg: cfg, Net: net, Scaler: estScaler, Width: hdr.Width},
		Classifier: &Classifier{LR: lr, Scaler: clfScaler, Threshold: hdr.Threshold},
		Mode:       ClassifierMode(hdr.Mode),
		MaxBuckets: int(hdr.MaxBuckets),
		protocol:   protocol{int(hdr.MinPairObs), int(hdr.TrainPairs), int(hdr.TestPairs), int(hdr.PrefixRows)},
	}
	if _, err := m.Recipe(); err != nil {
		return nil, err
	}
	return m, nil
}

// checkShape reports whether a read model's parts fit one another and
// this package's features: dense layers that chain NumFeatures inputs
// to the header's Bands×CondBuckets outputs, an estimator scaler as wide
// as the input, and a classifier and scaler NumClassifierFeatures wide.
// A file that fails it would route on a misread estimator, or panic.
// It returns the hidden layer widths: every dense layer's but the last.
func checkShape(cfg EstimatorConfig, net *ml.Network, est *ml.StandardScaler, lr *ml.LogisticRegression, clf *ml.StandardScaler) (hidden []int, err error) {
	width := NumFeatures
	for i, d := range net.Layers {
		if d.W.Rows != width {
			return nil, fmt.Errorf("hybrid: estimator layer %d takes %d inputs, not the %d before it", i, d.W.Rows, width)
		}
		if i > 0 {
			hidden = append(hidden, width)
		}
		width = d.W.Cols
	}
	switch {
	case width != cfg.Bands*cfg.CondBuckets:
		return nil, fmt.Errorf("hybrid: estimator network has %d outputs, not the header's %dx%d", width, cfg.Bands, cfg.CondBuckets)
	case len(est.Mean) != NumFeatures:
		return nil, fmt.Errorf("hybrid: estimator scaler of width %d, want %d", len(est.Mean), NumFeatures)
	case len(lr.W) != NumClassifierFeatures || len(clf.Mean) != NumClassifierFeatures:
		return nil, fmt.Errorf("hybrid: classifier of width %d with a scaler of width %d, want %d", len(lr.W), len(clf.Mean), NumClassifierFeatures)
	}
	return hidden, nil
}

// WriteModelSet serialises a model set in the SRH3 format. Every slice
// must carry a valid Recipe: a model Train built, or one read back.
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
// routing. A file in a retired format fails with ErrSRHMRetired or
// ErrSRH2Retired, and one whose recipe fails Config.Validate fails too.
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
	case [4]byte{'S', 'R', 'H', '2'}:
		return nil, ErrSRH2Retired
	default:
		return nil, errors.New("hybrid: bad magic (not an SRH3 file)")
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

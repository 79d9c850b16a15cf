package server

import (
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"

	"stochroute/internal/httpsvc"
)

// The route answers are the one JSON shape this server produces per
// query, thousands of times a second on a warm cache, so they are
// appended into a pooled buffer field by field instead of walked by
// encoding/json's reflection. The struct tags stay the definition of
// the wire format: the append encoders must produce encoding/json's
// bytes for every value (encode_test.go holds them to it).

// appendJSON appends resp as encoding/json would marshal it: same
// field order, same omitempty rules, same number formatting, and the
// same refusal of a non-finite float.
func (resp *routeResponse) appendJSON(dst []byte) ([]byte, error) {
	if err := finite(resp.Budget, resp.Depart, resp.Prob, resp.MeanSeconds, resp.RuntimeMS); err != nil {
		return dst, err
	}
	dst = append(dst, `{"source":`...)
	dst = strconv.AppendInt(dst, int64(resp.Source), 10)
	dst = append(dst, `,"dest":`...)
	dst = strconv.AppendInt(dst, int64(resp.Dest), 10)
	dst = append(dst, `,"budget_s":`...)
	dst = httpsvc.AppendFloat(dst, resp.Budget)
	if resp.Depart != 0 {
		dst = append(dst, `,"depart_s":`...)
		dst = httpsvc.AppendFloat(dst, resp.Depart)
	}
	dst = appendIntField(dst, `,"slice":`, resp.Slice)
	if resp.TimeExpanded {
		dst = append(dst, `,"time_expanded":true`...)
	}
	dst = appendIntsField(dst, `,"slice_seq":`, resp.SliceSeq)
	dst = append(dst, `,"found":`...)
	dst = strconv.AppendBool(dst, resp.Found)
	dst = append(dst, `,"complete":`...)
	dst = strconv.AppendBool(dst, resp.Complete)
	dst = append(dst, `,"prob":`...)
	dst = httpsvc.AppendFloat(dst, resp.Prob)
	if resp.MeanSeconds != 0 {
		dst = append(dst, `,"mean_s":`...)
		dst = httpsvc.AppendFloat(dst, resp.MeanSeconds)
	}
	dst = appendIntsField(dst, `,"path":`, resp.Path)
	dst = appendIntField(dst, `,"expansions":`, resp.Expansions)
	dst = appendIntField(dst, `,"generated_labels":`, resp.GeneratedLabels)
	dst = appendIntField(dst, `,"convolved":`, resp.Convolved)
	dst = appendIntField(dst, `,"estimated":`, resp.Estimated)
	dst = append(dst, `,"model_epoch":`...)
	dst = strconv.AppendUint(dst, resp.ModelEpoch, 10)
	dst = append(dst, `,"runtime_ms":`...)
	dst = httpsvc.AppendFloat(dst, resp.RuntimeMS)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, resp.Cached)
	return append(dst, '}'), nil
}

// appendJSON appends one batch result: the route answer's object with
// the item's error, when it has one, as a last field.
func (it *batchItemResponse) appendJSON(dst []byte) ([]byte, error) {
	dst, err := it.routeResponse.appendJSON(dst)
	if err != nil || it.Error == "" {
		return dst, err
	}
	// Error text is arbitrary (a backend's message): encoding/json owns
	// string escaping. Item errors are rare; the copy is fine.
	quoted, err := json.Marshal(it.Error)
	if err != nil {
		return dst, err
	}
	dst = append(dst[:len(dst)-1], `,"error":`...) // reopen the object
	dst = append(dst, quoted...)
	return append(dst, '}'), nil
}

// appendJSON appends the /route/batch answer.
func (out *batchResponse) appendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"results":`...)
	if out.Results == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range out.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = out.Results[i].appendJSON(dst); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	if err := finite(out.RuntimeMS); err != nil {
		return dst, err
	}
	dst = append(dst, `,"cache_hits":`...)
	dst = strconv.AppendInt(dst, int64(out.CacheHits), 10)
	dst = append(dst, `,"runtime_ms":`...)
	dst = httpsvc.AppendFloat(dst, out.RuntimeMS)
	return append(dst, '}'), nil
}

// finite returns encoding/json's error for the first NaN or infinity
// among fs, nil when every value has a JSON spelling.
func finite(fs ...float64) error {
	for _, f := range fs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
	}
	return nil
}

// appendIntField appends an omitempty integer field.
func appendIntField(dst []byte, key string, v int) []byte {
	if v == 0 {
		return dst
	}
	dst = append(dst, key...)
	return strconv.AppendInt(dst, int64(v), 10)
}

// appendIntsField appends an omitempty integer-array field.
func appendIntsField[T ~int | ~int32](dst []byte, key string, vs []T) []byte {
	if len(vs) == 0 {
		return dst
	}
	dst = append(dst, key...)
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(v), 10)
	}
	return append(dst, ']')
}

// encodeBufs recycles the scratch storage of response documents.
var encodeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// writeAppended answers with the document appendJSON produces in a
// pooled buffer, terminated by the newline json.Encoder ends a
// document with; an encoder error is returned with nothing written.
func writeAppended(w http.ResponseWriter, appendJSON func([]byte) ([]byte, error)) error {
	buf := encodeBufs.Get().(*[]byte)
	doc, err := appendJSON((*buf)[:0])
	if err == nil {
		doc = append(doc, '\n')
		err = httpsvc.WriteJSONBytes(w, doc)
	}
	*buf = doc
	encodeBufs.Put(buf)
	return err
}

package httpsvc

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
)

// Error carries a client-visible status code through a handler return;
// the wrapper answers it as Code with the body {"error": Msg}.
type Error struct {
	Code int
	Msg  string
}

// Error returns the client-visible message.
func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 *Error with a formatted message.
func BadRequest(format string, args ...any) error {
	return &Error{Code: http.StatusBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// Aborted marks a failure after the response started: the status line
// and part of the body are already on the wire, so appending a JSON
// error would corrupt both. The wrapper counts and logs it but writes
// nothing further.
type Aborted struct{ Err error }

// Error returns the cause's message, which is what gets logged.
func (e *Aborted) Error() string { return e.Err.Error() }

// Unwrap exposes the cause to errors.Is / errors.As.
func (e *Aborted) Unwrap() error { return e.Err }

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header()[HeaderContentType] = jsonContentType
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// WriteJSON answers 200 (or whatever status was already set) with v
// encoded as JSON.
func WriteJSON(w http.ResponseWriter, v any) error {
	w.Header()[HeaderContentType] = jsonContentType
	return json.NewEncoder(w).Encode(v)
}

// WriteJSONBytes answers 200 (or whatever status was already set) with
// a JSON document the caller has already encoded.
func WriteJSONBytes(w http.ResponseWriter, doc []byte) error {
	w.Header()[HeaderContentType] = jsonContentType
	_, err := w.Write(doc)
	return err
}

// AppendFloat appends a finite float64 the way encoding/json does: the
// shortest digits that round-trip, in ES6 number-to-string form —
// exponent notation only below 1e-6 and from 1e21 up, and a negative
// exponent without its padding zero. Both services' hand-appended
// answers format their floats through it.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// ReadBody reads a request body whole, for a handler that walks it in
// place, never past maxBytes. A body past the cap is a 413, a declared
// one before a byte of it is read. A declared Content-Length sizes the
// buffer only as far as the bytes that arrive bear it out: the buffer
// starts at one chunk (bodyChunk at most) and doubles each time it
// fills, up to the declared length, so a client that declares a large
// body and sends little of it holds little memory.
func ReadBody(r *http.Request, maxBytes int64) ([]byte, error) {
	if r.ContentLength > maxBytes {
		return nil, TooLarge(maxBytes)
	}
	declared := maxBytes
	if r.ContentLength >= 0 {
		declared = r.ContentLength
	}
	// The byte past the declared length (or the cap) is room to tell a
	// longer body.
	body := make([]byte, 0, min(declared, bodyChunk)+1)
	for {
		var err error
		if body, err = AppendAll(body, r.Body, cap(body)-1); err != nil {
			return nil, BadRequest("read body: %v", err)
		}
		if len(body) < cap(body) {
			return body, nil
		}
		if int64(len(body)) > maxBytes {
			return nil, TooLarge(maxBytes)
		}
		next := min(2*int64(cap(body)), maxBytes+1)
		if int64(len(body)) <= declared {
			next = min(next, declared+1)
		}
		grown := make([]byte, len(body), next)
		copy(grown, body)
		body = grown
	}
}

// bodyChunk is the most of a declared Content-Length ReadBody allocates
// before any of the body has arrived.
const bodyChunk = 64 << 10

// TooLarge is the 413 *Error for a body past maxBytes.
func TooLarge(maxBytes int64) error {
	return &Error{Code: http.StatusRequestEntityTooLarge, Msg: fmt.Sprintf("request body exceeds %d bytes", maxBytes)}
}

// AppendAll appends what r yields to dst until EOF or until more than
// limit bytes are in, so a caller can tell a body past its cap. It
// grows dst only when it is full.
func AppendAll(dst []byte, r io.Reader, limit int) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		room := dst[len(dst):cap(dst)]
		if left := limit - len(dst); left < len(room) {
			room = room[:left+1]
		}
		n, err := r.Read(room)
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil || len(dst) > limit {
			return dst, err
		}
	}
}

// FloatParam parses an optional finite float query parameter.
func FloatParam(r *http.Request, key string, def float64) (float64, error) {
	raw := QueryParam(r, key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, BadRequest("%s: not a finite number: %q", key, raw)
	}
	return v, nil
}

// IntParam parses an optional integer query parameter.
func IntParam(r *http.Request, key string, def int) (int, error) {
	raw := QueryParam(r, key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, BadRequest("%s: not an integer: %q", key, raw)
	}
	return v, nil
}

// BoolParam parses an optional boolean query parameter.
func BoolParam(r *http.Request, key string, def bool) (bool, error) {
	raw := QueryParam(r, key)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.ParseBool(raw)
	if err != nil {
		return false, BadRequest("%s: not a boolean: %q", key, raw)
	}
	return v, nil
}

package httpsvc

import (
	"encoding/json"
	"errors"
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

// DecodeJSON reads a request body into v with the two hardenings every
// JSON endpoint gets: the body is wrapped in http.MaxBytesReader so an
// oversized payload fails fast instead of ballooning memory, and
// unknown fields are rejected so malformed clients hear about their
// mistake instead of being silently half-ignored. Only whitespace may
// follow the value, and a body past the cap is a 413 wherever the value
// ends.
func DecodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		// The body must end with the value; dec.More would also stop at
		// a stray closing bracket, or at the cap.
		if _, err = dec.Token(); err == io.EOF {
			return nil
		} else if !errors.As(err, new(*http.MaxBytesError)) {
			return BadRequest("trailing data after JSON body")
		}
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return &Error{Code: http.StatusRequestEntityTooLarge,
			Msg: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)}
	}
	return BadRequest("invalid JSON body: %v", err)
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

package httpsvc

import "net/http"

// The header keys the fleet protocol names, spelled the way net/http
// stores them and puts them on the wire, so reading or stamping one
// is a plain map access (see the package documentation).
const (
	HeaderRequestID   = "X-Request-Id"
	HeaderTraceparent = "Traceparent"
	HeaderReplica     = "X-Replica"
	HeaderCache       = "X-Cache"
	HeaderContentType = "Content-Type"
	HeaderAccept      = "Accept"
)

// jsonContentType is the Content-Type value slice every JSON answer
// shares; nothing may write through it.
var jsonContentType = []string{"application/json"}

// HeaderValue is h.Get(key) for a key already in canonical form.
func HeaderValue(h http.Header, key string) string {
	if v := h[key]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// ShareHeader makes dst carry src's first value of the canonical key,
// as h.Set(key, src.Get(key)) would, but through a one-element view of
// src's own value slice instead of a copy. An absent or empty value
// leaves dst alone and reports false. dst must not outlive src.
func ShareHeader(dst, src http.Header, key string) bool {
	v := src[key]
	if len(v) == 0 || v[0] == "" {
		return false
	}
	dst[key] = v[:1:1]
	return true
}

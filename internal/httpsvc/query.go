package httpsvc

import (
	"net/http"
	"net/url"
	"strings"
)

// QueryParam returns the first value of key in the request's query
// string, "" when absent: for every input the value net/url's parsed
// url.Values would Get, found by scanning the raw query instead of
// parsing all of it into a map on every lookup.
func QueryParam(r *http.Request, key string) string {
	return rawQuery(r.URL.RawQuery, key)
}

// rawQuery scans query for the first pair url.ParseQuery would have
// kept under key. ParseQuery's rules, which this follows pair by pair:
// pairs are split on '&'; a pair containing ';' or failing to unescape
// (key or value) is dropped, so a later duplicate answers instead; a
// pair without '=' has the empty value. A value with nothing to decode
// is returned as a sub-string of query, so the common lookup allocates
// nothing.
func rawQuery(query, key string) string {
	for query != "" {
		var pair string
		pair, query, _ = strings.Cut(query, "&")
		if pair == "" || strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		if strings.ContainsAny(k, "%+") {
			dk, err := url.QueryUnescape(k)
			if err != nil {
				continue
			}
			k = dk
		}
		if k != key {
			continue
		}
		if !strings.ContainsAny(v, "%+") {
			return v
		}
		if dv, err := url.QueryUnescape(v); err == nil {
			return dv
		}
	}
	return ""
}

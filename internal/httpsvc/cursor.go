package httpsvc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The request bodies and replica answers the fleet reads in bulk — a
// /route/batch body, a replica's batch answer, an /ingest body — are
// walked in place once json.Valid has accepted them: a Cursor yields
// each value's span, a sub-slice of the document, never a copy. A walk
// applies encoding/json's rules for the shape its document decodes
// into: an object key names a field when the two are equal under
// Unicode case folding once unescaped (KeyIs), a repeated key's last
// value wins, null leaves a field as it was, an int field takes an
// integer literal in range only (Integer), a float64 field a finite
// number (Float), and an array fills a slice as encoding/json fills one
// (ScanArray). FuzzScanBatchRequest in internal/gateway, and
// FuzzScanRouteBatch and FuzzScanIngest in internal/server, hold the
// walks to encoding/json.

// Cursor walks a document json.Valid has accepted; it never checks
// syntax itself.
type Cursor struct {
	doc []byte
	i   int
}

// NewCursor returns a cursor at the start of doc, which json.Valid
// must have accepted.
func NewCursor(doc []byte) Cursor { return Cursor{doc: doc} }

// space moves past insignificant whitespace.
func (c *Cursor) space() {
	for c.i < len(c.doc) {
		switch c.doc[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return
		}
	}
}

// Value returns the span of the value at the cursor and moves past it.
func (c *Cursor) Value() []byte {
	c.space()
	start := c.i
	switch c.doc[c.i] {
	case '"':
		c.str()
	case '{', '[':
		for depth := 0; ; {
			switch c.doc[c.i] {
			case '"':
				c.str()
				continue
			case '{', '[':
				depth++
			case '}', ']':
				depth--
			}
			c.i++
			if depth == 0 {
				break
			}
		}
	default: // a number or a literal
		for c.i < len(c.doc) {
			switch c.doc[c.i] {
			case ',', ']', '}', ' ', '\t', '\r', '\n':
				return c.doc[start:c.i]
			}
			c.i++
		}
	}
	return c.doc[start:c.i]
}

// str moves past the string at the cursor.
func (c *Cursor) str() {
	for c.i++; c.doc[c.i] != '"'; c.i++ {
		if c.doc[c.i] == '\\' {
			c.i++
		}
	}
	c.i++
}

// More reports whether the object or array the cursor is in has
// another element, moving past the comma before it or past the bracket
// that closes the container. Called first just inside the opening
// bracket.
func (c *Cursor) More() bool {
	c.space()
	switch c.doc[c.i] {
	case ',':
		c.i++
		return true
	case ']', '}':
		c.i++
		return false
	}
	return true
}

// Open moves into the object or array at the cursor, by its opening
// bracket, and reports true, or moves past a null and reports false.
// Any other value is an error naming its type.
func (c *Cursor) Open(bracket byte) (bool, error) {
	switch c.Peek() {
	case bracket:
		c.i++
		return true, nil
	case 'n':
		c.Value()
		return false, nil
	}
	want := "an object"
	if bracket == '[' {
		want = "an array"
	}
	return false, fmt.Errorf("want %s, got %s", want, Kind(c.Value()))
}

// Len returns the number of elements of the array at the cursor, which
// does not move.
func (c *Cursor) Len() int {
	d := *c
	d.space()
	d.i++
	n := 0
	for ; d.More(); n++ {
		d.Value()
	}
	return n
}

// Key returns the next member's key, quotes included, and moves past
// the colon after it.
func (c *Cursor) Key() []byte {
	k := c.Value()
	c.space()
	c.i++
	return k
}

// Peek returns the first byte of the value at the cursor.
func (c *Cursor) Peek() byte {
	c.space()
	return c.doc[c.i]
}

// KeyIs reports whether a quoted key names the field name. Only a key
// with an escape is unquoted, which allocates; without one its bytes
// are the key's.
func KeyIs(quoted []byte, name string) bool {
	raw := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, []byte(name))
	}
	var s string
	return json.Unmarshal(quoted, &s) == nil && strings.EqualFold(s, name)
}

// Integer parses a value the way encoding/json fills an int field:
// with strconv.ParseInt, so an integer literal in int64 range. A
// fraction, an exponent or any other kind of value is refused; a
// narrower field checks the range of what it gets.
func Integer(v []byte) (int, bool) {
	n, err := strconv.ParseInt(string(v), 10, 64)
	return int(n), err == nil
}

// Float parses a value the way encoding/json fills a float64 field:
// with strconv.ParseFloat, so a number literal whose value is a finite
// float64. Any other kind of value is refused.
func Float(v []byte) (float64, bool) {
	f, err := strconv.ParseFloat(string(v), 64)
	return f, err == nil
}

// ScanArray walks the array at the cursor into dst as encoding/json
// decodes an array into a slice that already holds dst: element i into
// dst[i], reusing dst's array when the elements fit in its capacity and
// otherwise one array of exactly their number, which starts as a copy
// of all of dst's; an empty array is an empty slice and null a nil one.
// elem reads one element, at c, into its argument; it is handed no
// cursor, so a caller's cursor can stay on its stack (a closure that
// captures it does not escape). An error begins with the failing
// element's index.
func ScanArray[T any](c *Cursor, dst []T, elem func(*T) error) ([]T, error) {
	switch c.Peek() {
	case 'n':
		c.Value()
		return nil, nil
	case '[':
	default:
		return nil, fmt.Errorf(": want an array, got %s", Kind(c.Value()))
	}
	n := c.Len()
	switch {
	case n == 0:
		dst = []T{}
	case n > cap(dst):
		grown := make([]T, n)
		copy(grown, dst[:cap(dst)])
		dst = grown
	default:
		dst = dst[:n]
	}
	c.Open('[')
	for i := 0; c.More(); i++ {
		if err := elem(&dst[i]); err != nil {
			return nil, fmt.Errorf("[%d]%v", i, err)
		}
	}
	return dst, nil
}

// Kind names a value's JSON type for an error message.
func Kind(v []byte) string {
	switch v[0] {
	case '{':
		return "object"
	case '[':
		return "array"
	case '"':
		return "string"
	case 't', 'f':
		return "boolean"
	case 'n':
		return "null"
	}
	return "number"
}

// Describe names a value for an error message: a number by its
// literal, cut at 32 bytes, anything else by its type.
func Describe(v []byte) string {
	if k := Kind(v); k != "number" {
		return k
	}
	return fmt.Sprintf("%.32s", v)
}

// SyntaxError is encoding/json's verdict on a document json.Valid
// refused, worded as json.Unmarshal words it.
func SyntaxError(doc []byte) error {
	return json.Unmarshal(doc, new(struct{}))
}

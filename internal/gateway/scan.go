package gateway

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// The /route/batch documents — a client's body and each replica's
// answer — are walked in place once json.Valid has accepted them: a
// cursor yields each value's span, a sub-slice of the document, never a
// copy. The walk applies encoding/json's rules for the shapes those two
// documents decode into: an object key names a field when the two are
// equal under Unicode case folding once unescaped, a repeated key's
// last value wins, null leaves a field as it was, and an int field
// takes an integer literal in int64 range only. FuzzScanBatchRequest
// holds the walk to encoding/json.

// cursor walks a document json.Valid has accepted; it never checks
// syntax itself.
type cursor struct {
	doc []byte
	i   int
}

// space moves past insignificant whitespace.
func (c *cursor) space() {
	for c.i < len(c.doc) {
		switch c.doc[c.i] {
		case ' ', '\t', '\r', '\n':
			c.i++
		default:
			return
		}
	}
}

// value returns the span of the value at the cursor and moves past it.
func (c *cursor) value() []byte {
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
func (c *cursor) str() {
	for c.i++; c.doc[c.i] != '"'; c.i++ {
		if c.doc[c.i] == '\\' {
			c.i++
		}
	}
	c.i++
}

// more reports whether the object or array the cursor is in has
// another element, moving past the comma before it or past the bracket
// that closes the container. Called first just inside the opening
// bracket.
func (c *cursor) more() bool {
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

// open moves into the object or array at the cursor, by its opening
// bracket, and reports true, or moves past a null and reports false.
// Any other value is an error naming its type.
func (c *cursor) open(bracket byte) (bool, error) {
	switch c.peek() {
	case bracket:
		c.i++
		return true, nil
	case 'n':
		c.value()
		return false, nil
	}
	want := "an object"
	if bracket == '[' {
		want = "an array"
	}
	return false, fmt.Errorf("want %s, got %s", want, kind(c.value()))
}

// key returns the next member's key, quotes included, and moves past
// the colon after it.
func (c *cursor) key() []byte {
	k := c.value()
	c.space()
	c.i++
	return k
}

// peek returns the first byte of the value at the cursor.
func (c *cursor) peek() byte {
	c.space()
	return c.doc[c.i]
}

// keyIs reports whether a quoted key names the field name. Only a key
// with an escape is unquoted, which allocates; without one its bytes
// are the key's.
func keyIs(quoted []byte, name string) bool {
	raw := quoted[1 : len(quoted)-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return bytes.EqualFold(raw, []byte(name))
	}
	var s string
	return json.Unmarshal(quoted, &s) == nil && strings.EqualFold(s, name)
}

// integer parses a value the way encoding/json fills an int field:
// with strconv.ParseInt, so an integer literal in int64 range. A
// fraction, an exponent or any other kind of value is refused.
func integer(v []byte) (int, bool) {
	n, err := strconv.ParseInt(string(v), 10, 64)
	return int(n), err == nil
}

// kind names a value's JSON type for an error message.
func kind(v []byte) string {
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

// describe names a value for an error message: a number by its
// literal, cut at 32 bytes, anything else by its type.
func describe(v []byte) string {
	if k := kind(v); k != "number" {
		return k
	}
	return fmt.Sprintf("%.32s", v)
}

// syntaxError is encoding/json's verdict on a document json.Valid
// refused, worded as json.Unmarshal words it.
func syntaxError(doc []byte) error {
	return json.Unmarshal(doc, new(struct{}))
}

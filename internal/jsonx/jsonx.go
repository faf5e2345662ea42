// Package jsonx is the scanner and appender behind the hand-written
// wire codecs: ddg.Graph's JSON codec and internal/wire's request and
// response codecs.  Those codecs replace encoding/json's reflection on
// the compile path, so this package reproduces what encoding/json does
// for the shapes they handle:
//
//   - AppendString escapes exactly as json.Marshal does, HTML escaping
//     included: <, > and & go out as six-byte \u escapes.
//     AppendStringNoHTML escapes as a json.Encoder with
//     SetEscapeHTML(false) does, writing them as they are.
//   - AppendFloat writes a finite float64 as encoding/json does.
//   - Decoder accepts exactly the syntax json.Unmarshal accepts, nesting
//     capped at the same depth.  It unquotes strings as json.Unmarshal
//     does: invalid UTF-8 and unpaired surrogates become U+FFFD.
//   - Match picks a struct field for a key as json.Unmarshal does:
//     exactly, else case-insensitively per bytes.EqualFold.
//   - Int rejects a fraction, an exponent or an out-of-range value;
//     every scalar reader leaves its target unchanged on null.
//   - Slice, Array and Ptr decode into slices, arrays and pointers as
//     json.Unmarshal does, including its reuse of existing elements and
//     targets.
//
// A Decoder keeps its first error and turns every later call into a
// no-op, so a codec reads straight through and checks End once.
package jsonx

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// Decoder reads one JSON document from a byte slice.
type Decoder struct {
	data  []byte
	off   int
	depth int
	err   error
	// buf holds the unquoted form of the last escaped string.
	buf []byte
}

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// fail records err as the decoder's error unless one is already set.
func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// End checks that nothing but whitespace follows the document's value
// and returns the decoder's first error.
func (d *Decoder) End() error {
	if d.err == nil {
		if d.peek(); d.off < len(d.data) {
			d.syntax("after top-level value")
		}
	}
	return d.err
}

// Err returns the decoder's first error, without End's check for
// trailing data.
func (d *Decoder) Err() error { return d.err }

// Fail records err as the decoder's error unless one is already set:
// a codec reports a value that parses but does not validate this way.
func (d *Decoder) Fail(err error) { d.fail(err) }

// UnknownField fails the decode on a key no field matches; strict
// codecs call it where lenient ones call Skip.
func (d *Decoder) UnknownField(key []byte) {
	d.fail(fmt.Errorf("json: unknown field %q", key))
}

func (d *Decoder) syntax(context string) {
	if d.off >= len(d.data) {
		d.fail(errors.New("unexpected end of JSON input"))
		return
	}
	d.fail(fmt.Errorf("invalid character %q %s (offset %d)", rune(d.data[d.off]), context, d.off))
}

// mismatch fails on a value of the wrong kind for its target.
func (d *Decoder) mismatch(want string) {
	var got string
	switch c := d.peek(); {
	case c == 0:
		d.syntax("")
		return
	case c == '{':
		got = "object"
	case c == '[':
		got = "array"
	case c == '"':
		got = "string"
	case c == 't' || c == 'f':
		got = "bool"
	case c == '-' || '0' <= c && c <= '9':
		got = "number"
	default:
		d.syntax("looking for beginning of value")
		return
	}
	d.fail(fmt.Errorf("json: cannot unmarshal %s into a Go value of type %s (offset %d)", got, want, d.off))
}

// peek skips whitespace and returns the next byte, 0 at end of input;
// a NUL byte in the input also reads as 0, which no caller accepts as
// the start of a value or separator.
func (d *Decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal consumes the keyword lit (true, false or null).
func (d *Decoder) literal(lit string) {
	if !bytes.HasPrefix(d.data[d.off:], []byte(lit)) {
		for i := 0; i < len(lit) && d.off < len(d.data) && d.data[d.off] == lit[i]; i++ {
			d.off++
		}
		d.syntax("in literal " + lit)
		return
	}
	d.off += len(lit)
}

// Null consumes a null and reports whether there was one.
func (d *Decoder) Null() bool {
	if d.err != nil || d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return d.err == nil
}

// open consumes c ('{' or '['), reporting whether a member or element
// follows; a value of another kind is a type mismatch.
func (d *Decoder) open(c byte, want string) bool {
	if d.err != nil {
		return false
	}
	if d.peek() != c {
		d.mismatch(want)
		return false
	}
	d.off++
	if d.depth++; d.depth > maxDepth {
		d.fail(errors.New("exceeded max depth"))
		return false
	}
	if d.peek() == c+2 { // '}' or ']'
		d.off++
		d.depth--
		return false
	}
	return true
}

// Object starts a member loop over an object:
//
//	for more := d.Object(); more; more = d.More('}') {
//		switch jsonx.Match(d.Key(), fields) { ... }
//	}
//
// A null reads as an empty object, so a struct decoded this way is left
// unchanged by null, as encoding/json leaves it.
func (d *Decoder) Object() bool {
	if d.Null() {
		return false
	}
	return d.open('{', "object")
}

// More consumes the separator after an object member or array element
// and reports whether another one follows; close is '}' or ']'.
func (d *Decoder) More(close byte) bool {
	if d.err != nil {
		return false
	}
	switch d.peek() {
	case ',':
		d.off++
		return true
	case close:
		d.off++
		d.depth--
		return false
	}
	if close == '}' {
		d.syntax("after object key:value pair")
	} else {
		d.syntax("after array element")
	}
	return false
}

// Key reads an object member's key and its colon, returning the
// unquoted key.  The result may alias the decoder's scratch buffer:
// use it before reading the next string.
func (d *Decoder) Key() []byte {
	if d.err != nil {
		return nil
	}
	if d.peek() != '"' {
		d.syntax("looking for beginning of object key string")
		return nil
	}
	k := d.str()
	if d.err != nil {
		return nil
	}
	if d.peek() != ':' {
		d.syntax("after object key")
		return nil
	}
	d.off++
	return k
}

// Match returns the entry of names that key selects the way
// encoding/json picks a struct field: an exact match, else the first
// name equal to key under bytes.EqualFold; "" when none matches.
func Match(key []byte, names []string) string {
	for _, n := range names {
		if string(key) == n {
			return n
		}
	}
	for _, n := range names {
		if bytes.EqualFold(key, []byte(n)) {
			return n
		}
	}
	return ""
}

// String decodes a string into *p; null leaves it unchanged.
func (d *Decoder) String(p *string) {
	if d.err != nil {
		return
	}
	switch d.peek() {
	case '"':
		if s := d.str(); d.err == nil {
			*p = string(s)
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("string")
	}
}

// Bool decodes true or false into *p; null leaves it unchanged.
func (d *Decoder) Bool(p *bool) {
	if d.err != nil {
		return
	}
	switch d.peek() {
	case 't':
		if d.literal("true"); d.err == nil {
			*p = true
		}
	case 'f':
		if d.literal("false"); d.err == nil {
			*p = false
		}
	case 'n':
		d.literal("null")
	default:
		d.mismatch("bool")
	}
}

// number reads a number literal, or fails; ok is false for null (which
// it consumes) and on error.
func (d *Decoder) number(want string) (lit []byte, ok bool) {
	if d.err != nil {
		return nil, false
	}
	switch c := d.peek(); {
	case c == '-' || '0' <= c && c <= '9':
		return d.scanNumber(), d.err == nil
	case c == 'n':
		d.literal("null")
	default:
		d.mismatch(want)
	}
	return nil, false
}

// Int64 decodes an integer into *p; null leaves it unchanged.  A
// fraction, an exponent or a value outside int64 is a type mismatch,
// as it is for encoding/json.
func (d *Decoder) Int64(p *int64) {
	lit, ok := d.number("int64")
	if !ok {
		return
	}
	if n, ok := parseInt(lit); ok {
		*p = n
		return
	}
	d.fail(fmt.Errorf("json: cannot unmarshal number %s into a Go value of type int64", lit))
}

// Int decodes an integer into *p as Int64 does, also rejecting values
// outside int.
func (d *Decoder) Int(p *int) {
	n := int64(*p)
	d.Int64(&n)
	if int64(int(n)) != n {
		d.fail(fmt.Errorf("json: cannot unmarshal number %d into a Go value of type int", n))
		return
	}
	*p = int(n)
}

// Float64 decodes a number into *p; null leaves it unchanged, and a
// value outside float64 is a type mismatch.
func (d *Decoder) Float64(p *float64) {
	lit, ok := d.number("float64")
	if !ok {
		return
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.fail(fmt.Errorf("json: cannot unmarshal number %s into a Go value of type float64", lit))
		return
	}
	*p = f
}

// parseInt is strconv.ParseInt(lit, 10, 64) for a literal already
// known to be a JSON number; it reports false for a fraction, an
// exponent or overflow.
func parseInt(lit []byte) (int64, bool) {
	digits := lit
	if digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) > 18 {
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if lit[0] == '-' {
		n = -n
	}
	return n, true
}

// Skip consumes one value of any kind, validating it.
func (d *Decoder) Skip() {
	if d.err != nil {
		return
	}
	switch c := d.peek(); {
	case c == '{':
		for more := d.open('{', "object"); more; more = d.More('}') {
			d.Key()
			d.Skip()
		}
	case c == '[':
		for more := d.open('[', "array"); more; more = d.More(']') {
			d.Skip()
		}
	case c == '"':
		d.scanString()
	case c == 't':
		d.literal("true")
	case c == 'f':
		d.literal("false")
	case c == 'n':
		d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		d.scanNumber()
	default:
		d.syntax("looking for beginning of value")
	}
}

// Slice decodes an array into *s the way encoding/json decodes into a
// slice: null sets it to nil, [] to an empty non-nil slice, and
// elements decode in place over the existing backing array, up to its
// capacity and without zeroing, so a repeated key reuses what the
// earlier occurrence left there.
func Slice[T any](d *Decoder, s *[]T, elem func(*Decoder, *T)) {
	if d.Null() {
		*s = nil
		return
	}
	v, i := *s, 0
	for more := d.open('[', "array"); more; more = d.More(']') {
		switch {
		case i < len(v):
		case i < cap(v):
			v = v[:i+1]
		default:
			var zero T
			v = append(v, zero)
		}
		elem(d, &v[i])
		i++
	}
	if d.err != nil {
		return
	}
	if i == 0 {
		*s = make([]T, 0)
		return
	}
	*s = v[:i]
}

// Array decodes an array into a, a fixed-length Go array's elements,
// the way encoding/json decodes into an array: null leaves it
// unchanged, elements past len(a) are validated and dropped, and
// elements the input lacks are zeroed.
func Array[T any](d *Decoder, a []T, elem func(*Decoder, *T)) {
	if d.Null() {
		return
	}
	i := 0
	for more := d.open('[', "array"); more; more = d.More(']') {
		if i < len(a) {
			elem(d, &a[i])
		} else {
			d.Skip()
		}
		i++
	}
	if d.err == nil && i < len(a) {
		clear(a[i:])
	}
}

// Ptr decodes into *p the way encoding/json decodes into a pointer:
// null sets it to nil, any other value decodes into the existing
// target, allocated first when *p is nil.
func Ptr[T any](d *Decoder, p **T, decode func(*Decoder, *T)) {
	if d.Null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	decode(d, *p)
}

// scanNumber consumes a number literal at d.off, checking its grammar.
func (d *Decoder) scanNumber() []byte {
	data, start, i := d.data, d.off, d.off
	digits := func() bool {
		n := i
		for i < len(data) && '0' <= data[i] && data[i] <= '9' {
			i++
		}
		return i > n
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case !digits():
		d.off = i
		d.syntax("in numeric literal")
		return nil
	}
	if i < len(data) && data[i] == '.' {
		i++
		if !digits() {
			d.off = i
			d.syntax("after decimal point in numeric literal")
			return nil
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if !digits() {
			d.off = i
			d.syntax("in exponent of numeric literal")
			return nil
		}
	}
	d.off = i
	return data[start:i]
}

// scanString consumes a string literal at d.off, checking its syntax,
// and returns its body between the quotes, still escaped; plain reports
// a body of ASCII without escapes, which needs no unquoting.
func (d *Decoder) scanString() (body []byte, plain bool) {
	data := d.data
	start := d.off + 1
	plain = true
	for i := start; i < len(data); {
		switch c := data[i]; {
		case c == '"':
			d.off = i + 1
			return data[start:i], plain
		case c == '\\':
			plain = false
			if i+1 >= len(data) {
				i++
				break
			}
			switch data[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				for k := i + 2; k < i+6; k++ {
					if k >= len(data) {
						d.off = k
						d.syntax("")
						return nil, false
					}
					if hexVal(data[k]) < 0 {
						d.off = k
						d.syntax(`in \u hexadecimal character escape`)
						return nil, false
					}
				}
				i += 6
			default:
				d.off = i + 1
				d.syntax("in string escape code")
				return nil, false
			}
		case c < ' ':
			d.off = i
			d.syntax("in string literal")
			return nil, false
		default:
			if c >= utf8.RuneSelf {
				plain = false
			}
			i++
		}
	}
	d.off = len(data)
	d.syntax("")
	return nil, false
}

// str consumes a string literal and returns it unquoted.
func (d *Decoder) str() []byte {
	s, plain := d.scanString()
	if d.err != nil || plain {
		return s
	}
	return d.unquote(s)
}

// unquote is encoding/json's unquoting of a syntactically valid string
// body: s itself when nothing needs rewriting, else the rewritten
// bytes in d.buf.
func (d *Decoder) unquote(s []byte) []byte {
	r := 0
	for r < len(s) {
		c := s[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRune(s[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(s) {
		return s
	}
	b := append(d.buf[:0], s[:r]...)
	for r < len(s) {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := getu4(s[r:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, getu4(s[r:])); dec != unicode.ReplacementChar {
						r += 6
						b = utf8.AppendRune(b, dec)
						continue
					}
					rr = unicode.ReplacementChar
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	d.buf = b
	return b
}

// getu4 decodes a \uXXXX escape at the start of s, or returns -1.
func getu4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}

func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

const hex = "0123456789abcdef"

// htmlSafe and textSafe report the ASCII bytes json.Marshal writes as
// they are, with and without HTML escaping.
var htmlSafe, textSafe = func() (html, text [utf8.RuneSelf]bool) {
	for c := byte(' '); c < utf8.RuneSelf; c++ {
		text[c] = c != '"' && c != '\\'
		html[c] = text[c] && c != '<' && c != '>' && c != '&'
	}
	return html, text
}()

// AppendString appends s as a JSON string exactly as json.Marshal
// writes it: HTML-escaped, with invalid UTF-8 replaced by an escaped
// U+FFFD and U+2028 and U+2029 escaped.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s, &htmlSafe) }

// AppendStringNoHTML appends s as a JSON string exactly as a
// json.Encoder with SetEscapeHTML(false) writes it: as AppendString,
// but with <, > and & left as they are.
func AppendStringNoHTML(dst []byte, s string) []byte { return appendString(dst, s, &textSafe) }

func appendString(dst []byte, s string, safe *[utf8.RuneSelf]bool) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if safe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendField appends an object member's opening: '{' when dst still
// ends where the object starts (offset open), else ',', then the
// quoted key and a colon.  key must need no escaping.
func AppendField(dst []byte, open int, key string) []byte {
	if len(dst) == open {
		dst = append(dst, '{', '"')
	} else {
		dst = append(dst, ',', '"')
	}
	dst = append(dst, key...)
	return append(dst, '"', ':')
}

// CloseObject ends an object that starts at offset open: "}", or "{}"
// when AppendField wrote no member.
func CloseObject(dst []byte, open int) []byte {
	if len(dst) == open {
		return append(dst, '{', '}')
	}
	return append(dst, '}')
}

// AppendInt appends n in decimal.
func AppendInt[I int | int64](dst []byte, n I) []byte {
	return strconv.AppendInt(dst, int64(n), 10)
}

// AppendFloat appends f as encoding/json writes a float64: the
// shortest decimal that round-trips, in exponent form (with a
// one-digit exponent spelt without its leading zero) below 1e-6 and
// from 1e21 on.  f must be finite; encoding/json refuses NaN and ±Inf.
func AppendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

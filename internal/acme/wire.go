package acme

import (
	"bytes"
	"errors"
	"sort"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/scanner"
)

// The ACME API's JSON bodies are built and parsed here without
// reflection. Encoders append in the scanner.AppendRecord idiom and emit
// exactly what encoding/json.Marshal would for the same struct: fields in
// declaration order, string escaping through scanner.AppendJSONString,
// map keys sorted. The decoder is strict: it accepts a subset of what
// encoding/json accepts and decodes it to the value encoding/json would
// (FuzzACMEWire holds both claims against encoding/json). Object keys
// match field names under bytes.EqualFold, as encoding/json matches them;
// a repeated key overwrites, except that a repeated "tokens" object adds
// to the map, as encoding/json does. Unknown keys are parsed and skipped.
// It rejects, where encoding/json would not: invalid UTF-8 inside strings
// (encoding/json substitutes U+FFFD), nesting deeper than maxJSONDepth,
// null anywhere but as a whole field's value, and a top-level null.

// maxJSONDepth bounds object/array nesting in an API body. No message
// nests deeper than 2; the bound only keeps a hostile body from recursing.
const maxJSONDepth = 16

// wireError is a malformed API body: what the decoder expected and the
// byte offset where it gave up.
type wireError struct {
	what string
	off  int
}

func (e *wireError) Error() string {
	return "acme: malformed JSON body: " + e.what + " at offset " + strconv.Itoa(e.off)
}

// errDepth is returned for bodies nested deeper than maxJSONDepth.
var errDepth = errors.New("acme: malformed JSON body: nesting too deep")

// Field names, as the bytes.EqualFold keys the decoder matches.
var (
	keyHostnames  = []byte("hostnames")
	keyKeyType    = []byte("key_type")
	keyKeyBits    = []byte("key_bits")
	keyKeyID      = []byte("key_id")
	keyOrderID    = []byte("order_id")
	keyTokens     = []byte("tokens")
	keyError      = []byte("error")
	keyCode       = []byte("code")
	keyRetryAfter = []byte("retry_after")
)

// appendOrderRequest appends r's JSON encoding to b.
func appendOrderRequest(b []byte, r *OrderRequest) []byte {
	b = append(b, `{"hostnames":`...)
	if r.Hostnames == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, h := range r.Hostnames {
			if i > 0 {
				b = append(b, ',')
			}
			b = scanner.AppendJSONString(b, h)
		}
		b = append(b, ']')
	}
	b = append(b, `,"key_type":`...)
	b = scanner.AppendJSONString(b, r.KeyType)
	b = append(b, `,"key_bits":`...)
	b = strconv.AppendInt(b, int64(r.KeyBits), 10)
	b = append(b, `,"key_id":`...)
	b = scanner.AppendJSONString(b, r.KeyID)
	return append(b, '}')
}

// appendOrderResponse appends r's JSON encoding to b, tokens in sorted
// key order.
func appendOrderResponse(b []byte, r *OrderResponse) []byte {
	b = append(b, `{"order_id":`...)
	b = scanner.AppendJSONString(b, r.OrderID)
	b = append(b, `,"tokens":`...)
	if r.Tokens == nil {
		b = append(b, "null"...)
		return append(b, '}')
	}
	hosts := make([]string, 0, len(r.Tokens))
	for h := range r.Tokens {
		hosts = append(hosts, h)
	}
	sort.Strings(hosts)
	b = append(b, '{')
	for i, h := range hosts {
		if i > 0 {
			b = append(b, ',')
		}
		b = scanner.AppendJSONString(b, h)
		b = append(b, ':')
		b = scanner.AppendJSONString(b, r.Tokens[h])
	}
	return append(b, "}}"...)
}

// appendFinalizeRequest appends r's JSON encoding to b.
func appendFinalizeRequest(b []byte, r *FinalizeRequest) []byte {
	b = append(b, `{"order_id":`...)
	b = scanner.AppendJSONString(b, r.OrderID)
	return append(b, '}')
}

// appendProblem appends p's JSON encoding to b, omitting empty fields.
func appendProblem(b []byte, p *Problem) []byte {
	b = append(b, '{')
	sep := false
	for _, f := range [...]struct{ key, val string }{
		{`"error":`, p.Error}, {`"code":`, p.Code}, {`"retry_after":`, p.RetryAfter},
	} {
		if f.val == "" {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		b = append(b, f.key...)
		b = scanner.AppendJSONString(b, f.val)
		sep = true
	}
	return append(b, '}')
}

// decodeOrderRequest parses a new-order body.
func decodeOrderRequest(data []byte) (OrderRequest, error) {
	var r OrderRequest
	d := jsonDecoder{data: data}
	err := d.document(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keyHostnames):
			return d.stringSlice(&r.Hostnames)
		case bytes.EqualFold(key, keyKeyType):
			return d.stringField(&r.KeyType)
		case bytes.EqualFold(key, keyKeyBits):
			return d.intField(&r.KeyBits)
		case bytes.EqualFold(key, keyKeyID):
			return d.stringField(&r.KeyID)
		}
		return d.skip()
	})
	return r, err
}

// decodeOrderResponse parses a new-order answer.
func decodeOrderResponse(data []byte) (OrderResponse, error) {
	var r OrderResponse
	d := jsonDecoder{data: data}
	err := d.document(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keyOrderID):
			return d.stringField(&r.OrderID)
		case bytes.EqualFold(key, keyTokens):
			return d.stringMap(&r.Tokens)
		}
		return d.skip()
	})
	return r, err
}

// decodeFinalizeRequest parses a finalize body.
func decodeFinalizeRequest(data []byte) (FinalizeRequest, error) {
	var r FinalizeRequest
	d := jsonDecoder{data: data}
	err := d.document(func(key []byte) error {
		if bytes.EqualFold(key, keyOrderID) {
			return d.stringField(&r.OrderID)
		}
		return d.skip()
	})
	return r, err
}

// decodeProblem parses a problem document.
func decodeProblem(data []byte) (Problem, error) {
	var p Problem
	d := jsonDecoder{data: data}
	err := d.document(func(key []byte) error {
		switch {
		case bytes.EqualFold(key, keyError):
			return d.stringField(&p.Error)
		case bytes.EqualFold(key, keyCode):
			return d.stringField(&p.Code)
		case bytes.EqualFold(key, keyRetryAfter):
			return d.stringField(&p.RetryAfter)
		}
		return d.skip()
	})
	return p, err
}

// jsonDecoder is a cursor over one JSON body.
type jsonDecoder struct {
	data  []byte
	pos   int
	depth int
	// buf holds the unescaped form of a string that contains escapes;
	// str's result aliases it (or data) until the next str call.
	buf []byte
}

func (d *jsonDecoder) fail(what string) error { return &wireError{what: what, off: d.pos} }

// document parses the whole body as one object, handing each key to
// field, which must consume the value; only whitespace may follow.
func (d *jsonDecoder) document(field func(key []byte) error) error {
	if err := d.object(field); err != nil {
		return err
	}
	d.space()
	if d.pos != len(d.data) {
		return d.fail("trailing data")
	}
	return nil
}

func (d *jsonDecoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// next skips whitespace and returns the next byte without consuming it
// (0 at the end of the body).
func (d *jsonDecoder) next() byte {
	d.space()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// object parses {"key": value, ...}, calling field for each key with the
// cursor on its value.
func (d *jsonDecoder) object(field func(key []byte) error) error {
	return d.list('{', '}', func() error {
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.next() != ':' {
			return d.fail("expected colon")
		}
		d.pos++
		return field(key)
	})
}

// list parses a bracketed, comma-separated list — an object's members or
// an array's elements — calling elem with the cursor on each one.
func (d *jsonDecoder) list(open, end byte, elem func() error) error {
	if d.next() != open {
		return d.fail("expected object or array")
	}
	if d.depth++; d.depth > maxJSONDepth {
		return errDepth
	}
	d.pos++
	if d.next() == end {
		d.pos++
		d.depth--
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.pos++
		case end:
			d.pos++
			d.depth--
			return nil
		default:
			return d.fail("expected comma or closing bracket")
		}
	}
}

// literal consumes lit if the body continues with it.
func (d *jsonDecoder) literal(lit string) bool {
	if len(d.data)-d.pos >= len(lit) && string(d.data[d.pos:d.pos+len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *jsonDecoder) null() bool { return d.next() == 'n' && d.literal("null") }

// stringField decodes a string into *s; null leaves *s unchanged, as
// encoding/json leaves it.
func (d *jsonDecoder) stringField(s *string) error {
	if d.null() {
		return nil
	}
	v, err := d.str()
	if err != nil {
		return err
	}
	*s = string(v)
	return nil
}

// intField decodes an integer into *n; null leaves *n unchanged.
func (d *jsonDecoder) intField(n *int) error {
	if d.null() {
		return nil
	}
	v, err := d.integer()
	if err != nil {
		return err
	}
	*n = v
	return nil
}

// stringSlice decodes an array of strings into a fresh slice (non-nil
// even when empty, as encoding/json makes it); null sets nil.
func (d *jsonDecoder) stringSlice(out *[]string) error {
	if d.null() {
		*out = nil
		return nil
	}
	ss := make([]string, 0, 1)
	err := d.list('[', ']', func() error {
		v, err := d.str()
		ss = append(ss, string(v))
		return err
	})
	*out = ss
	return err
}

// stringMap decodes an object of strings into *m, adding to an existing
// map as encoding/json does; null sets nil.
func (d *jsonDecoder) stringMap(m *map[string]string) error {
	if d.null() {
		*m = nil
		return nil
	}
	if *m == nil {
		*m = make(map[string]string, 1)
	}
	return d.object(func(key []byte) error {
		k := string(key)
		v, err := d.str()
		(*m)[k] = string(v)
		return err
	})
}

// skip parses and discards one value of any type.
func (d *jsonDecoder) skip() error {
	switch c := d.next(); {
	case c == '{':
		return d.object(func([]byte) error { return d.skip() })
	case c == '[':
		return d.list('[', ']', d.skip)
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		_, _, err := d.number()
		return err
	}
	if d.literal("true") || d.literal("false") || d.literal("null") {
		return nil
	}
	return d.fail("expected value")
}

// number scans one number per the JSON grammar, reporting whether it
// carried a fraction or exponent.
func (d *jsonDecoder) number() (lit []byte, integral bool, err error) {
	start := d.pos
	digits := func() int {
		n := 0
		for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		return n
	}
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case digits() == 0:
		return nil, false, d.fail("expected digit")
	}
	integral = true
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		integral = false
		if digits() == 0 {
			return nil, false, d.fail("expected digit after decimal point")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		integral = false
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return nil, false, d.fail("expected exponent digit")
		}
	}
	return d.data[start:d.pos], integral, nil
}

// integer scans a number that must be an integer in int's range, the
// only numbers encoding/json stores into an int field.
func (d *jsonDecoder) integer() (int, error) {
	start := d.pos
	lit, integral, err := d.number()
	if err != nil {
		return 0, err
	}
	neg := lit[0] == '-'
	if neg {
		lit = lit[1:]
	}
	// Up to 19 digits accumulate without overflowing a uint64.
	var u uint64
	for _, c := range lit {
		u = u*10 + uint64(c-'0')
	}
	v := int64(u)
	if neg {
		v = -v
	}
	if !integral || len(lit) > 19 || u > 1<<63 || !neg && u == 1<<63 || int64(int(v)) != v {
		d.pos = start
		return 0, d.fail("expected an integer in int range")
	}
	return int(v), nil
}

// str parses the string literal that must come next. The result aliases
// the body when the literal has no escapes, and d.buf otherwise; either
// way it is valid only until the next str call. Control characters and
// invalid UTF-8 are rejected; escaped UTF-16 surrogates decode as
// encoding/json decodes them, a lone one becoming U+FFFD.
func (d *jsonDecoder) str() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.fail("expected string")
	}
	d.pos++
	start := d.pos
	out := d.data[:0:0] // nil until the first escape
	escaped := false
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			if !escaped {
				d.pos++
				return d.data[start : d.pos-1], nil
			}
			out = append(out, d.data[start:d.pos]...)
			d.pos++
			d.buf = out
			return out, nil
		case c == '\\':
			if !escaped {
				escaped = true
				out = d.buf[:0]
			}
			out = append(out, d.data[start:d.pos]...)
			var err error
			if out, err = d.escape(out); err != nil {
				return nil, err
			}
			start = d.pos
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c < utf8.RuneSelf:
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				return nil, d.fail("invalid UTF-8 in string")
			}
			d.pos += size
		}
	}
	return nil, d.fail("unterminated string")
}

// escape decodes the escape sequence at the cursor onto out.
func (d *jsonDecoder) escape(out []byte) ([]byte, error) {
	if d.pos+1 >= len(d.data) {
		return nil, d.fail("unterminated escape")
	}
	c := d.data[d.pos+1]
	d.pos += 2
	switch c {
	case '"', '\\', '/':
		return append(out, c), nil
	case 'b':
		return append(out, '\b'), nil
	case 'f':
		return append(out, '\f'), nil
	case 'n':
		return append(out, '\n'), nil
	case 'r':
		return append(out, '\r'), nil
	case 't':
		return append(out, '\t'), nil
	case 'u':
		r := hex4(d.data[d.pos:])
		if r < 0 {
			return nil, d.fail("bad \\u escape")
		}
		d.pos += 4
		if utf16.IsSurrogate(r) {
			// A valid pair consumes the second escape; anything else
			// leaves it to be decoded on its own.
			r2 := rune(-1)
			if rest := d.data[d.pos:]; len(rest) >= 2 && rest[0] == '\\' && rest[1] == 'u' {
				r2 = hex4(rest[2:])
			}
			if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
				d.pos += 6
				r = dec
			} else {
				r = utf8.RuneError
			}
		}
		return utf8.AppendRune(out, r), nil
	}
	return nil, d.fail("bad escape")
}

// hex4 decodes four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

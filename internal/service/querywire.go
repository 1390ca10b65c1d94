package service

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"confmask/internal/query"
)

// This file is the query endpoint's wire format, read and written without
// reflection: a one-pass decoder for the request shape clients send, with
// encoding/json behind it for every other body, and an appender for the
// NDJSON response lines.

// wireBufs recycles the buffer a query request is read into and its
// response lines are appended to.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledWire bounds the buffers wireBufs keeps, so one huge batch does
// not pin its buffer for the daemon's lifetime.
const maxPooledWire = 1 << 20

// decodeBatch decodes the query batch in body, reading it whole into
// *buf. parseBatch decodes the shape json.Marshal gives a batch in one
// pass; any other body goes to json.Decoder as the same bytes, followed
// by the same read error if reading failed, so every body decodes, or is
// rejected, exactly as by json.Decoder alone.
func decodeBatch(body io.Reader, buf *[]byte) ([]query.Query, error) {
	data, rerr := readBody((*buf)[:0], body)
	*buf = data
	if rerr == nil {
		if qs, ok := parseBatch(data); ok {
			return qs, nil
		}
	}
	var src io.Reader = bytes.NewReader(data)
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	var batch queryBatch
	err := json.NewDecoder(src).Decode(&batch)
	return batch.Queries, err
}

// readBody appends everything r yields to b, as io.ReadAll does.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// parseBatch decodes data when it holds, after optional whitespace, an
// object whose one key is "queries", an array of objects whose keys are
// Query's JSON names, exactly and once each, with string values. That is
// the shape json.Marshal gives a batch. It reads no further than that
// object, as json.Decoder does. For anything else it returns false: a
// key of another name, spelling or case, a repeated key, an escape in a
// key, a value that is not a string, bytes encoding/json rejects or
// replaces, or a body that ends early. A value without escapes is a slice
// of one string copy of data.
func parseBatch(data []byte) ([]query.Query, bool) {
	p := batchParser{data: data, src: string(data)}
	if !p.eat('{') {
		return nil, false
	}
	if k, ok := p.key(); !ok || string(k) != "queries" || !p.eat('[') {
		return nil, false
	}
	// Every query is an object, so the braces bound the count.
	qs := make([]query.Query, 0, min(bytes.Count(data, []byte("{")), 4096))
	if !p.eat(']') {
		for {
			q, ok := p.query()
			if !ok {
				return nil, false
			}
			qs = append(qs, q)
			if p.eat(']') {
				break
			}
			if !p.eat(',') {
				return nil, false
			}
		}
	}
	if !p.eat('}') {
		return nil, false
	}
	return qs, true
}

// batchParser is parseBatch's cursor over data, and src its string copy.
type batchParser struct {
	data []byte
	src  string
	pos  int
	esc  []byte // the decoded bytes of an escaped value
}

// eat consumes byte c after optional whitespace, reporting whether it was
// there.
func (p *batchParser) eat(c byte) bool {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		case c:
			p.pos++
			return true
		default:
			return false
		}
	}
	return false
}

// query reads one query object.
func (p *batchParser) query() (query.Query, bool) {
	var q query.Query
	if !p.eat('{') {
		return q, false
	}
	if p.eat('}') {
		return q, true
	}
	var seen uint8
	for {
		k, ok := p.key()
		if !ok {
			return q, false
		}
		var field *string
		var bit uint8
		switch string(k) {
		case "id":
			field, bit = &q.ID, 1<<0
		case "kind":
			field, bit = (*string)(&q.Kind), 1<<1
		case "src":
			field, bit = &q.Src, 1<<2
		case "dst":
			field, bit = &q.Dst, 1<<3
		case "via":
			field, bit = &q.Via, 1<<4
		case "fail_node":
			field, bit = &q.FailNode, 1<<5
		case "fail_link":
			field, bit = &q.FailLink, 1<<6
		default:
			return q, false
		}
		if seen&bit != 0 {
			return q, false
		}
		seen |= bit
		if *field, ok = p.str(); !ok {
			return q, false
		}
		if p.eat('}') {
			return q, true
		}
		if !p.eat(',') {
			return q, false
		}
	}
}

// key reads an object key and the colon after it. The key is returned as
// the bytes of data it spans: a key holding an escape or a byte outside
// printable ASCII names no field, so it is declined.
func (p *batchParser) key() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.pos
	for ; p.pos < len(p.data); p.pos++ {
		switch c := p.data[p.pos]; {
		case c == '"':
			k := p.data[start:p.pos]
			p.pos++
			return k, p.eat(':')
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// str reads a string value as encoding/json decodes it into a string,
// declining raw control bytes and invalid UTF-8.
func (p *batchParser) str() (string, bool) {
	if !p.eat('"') {
		return "", false
	}
	start := p.pos
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			p.pos++
			return p.src[start : p.pos-1], true
		case c == '\\':
			return p.escaped(start)
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			p.pos += n
		default:
			p.pos++
		}
	}
	return "", false
}

// escaped finishes the string value that starts at start and whose first
// escape is at p.pos, decoding escapes as encoding/json does: a \u
// surrogate pair becomes its rune, and a lone surrogate U+FFFD.
func (p *batchParser) escaped(start int) (string, bool) {
	b := append(p.esc[:0], p.data[start:p.pos]...)
	defer func() { p.esc = b }()
	for p.pos < len(p.data) {
		c := p.data[p.pos]
		switch {
		case c == '"':
			p.pos++
			return string(b), true
		case c == '\\':
			if p.pos+1 >= len(p.data) {
				return "", false
			}
			switch e := p.data[p.pos+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
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
				r := p.u4(p.pos)
				if r < 0 {
					return "", false
				}
				p.pos += 6
				if utf16.IsSurrogate(r) {
					if pair := utf16.DecodeRune(r, p.u4(p.pos)); pair != utf8.RuneError {
						r = pair
						p.pos += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default:
				return "", false
			}
			p.pos += 2
		case c < ' ':
			return "", false
		case c >= utf8.RuneSelf:
			r, n := utf8.DecodeRune(p.data[p.pos:])
			if r == utf8.RuneError && n == 1 {
				return "", false
			}
			b = append(b, p.data[p.pos:p.pos+n]...)
			p.pos += n
		default:
			b = append(b, c)
			p.pos++
		}
	}
	return "", false
}

// u4 returns the rune of the \uXXXX escape at data[at:], or -1 when there
// is none.
func (p *batchParser) u4(at int) rune {
	if at+6 > len(p.data) || p.data[at] != '\\' || p.data[at+1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range p.data[at+2 : at+6] {
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

// appendResult appends r's NDJSON line: the bytes, newline included, that
// a json.Encoder with SetEscapeHTML(false) writes for it.
func appendResult(b []byte, r *query.Result) []byte {
	b = append(b, `{"index":`...)
	b = strconv.AppendInt(b, int64(r.Index), 10)
	if r.ID != "" {
		b = append(b, `,"id":`...)
		b = appendString(b, r.ID)
	}
	b = append(b, `,"kind":`...)
	b = appendString(b, string(r.Kind))
	b = append(b, `,"holds":`...)
	b = strconv.AppendBool(b, r.Holds)
	if r.Status != "" {
		b = append(b, `,"status":`...)
		b = appendString(b, r.Status)
	}
	if r.Paths != 0 {
		b = append(b, `,"paths":`...)
		b = strconv.AppendInt(b, int64(r.Paths), 10)
	}
	if r.Delivered != 0 {
		b = append(b, `,"delivered":`...)
		b = strconv.AppendInt(b, int64(r.Delivered), 10)
	}
	if r.Changed {
		b = append(b, `,"changed":true`...)
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	return append(b, "}\n"...)
}

// appendStats appends the trailing line of a batch, {"stats": st}, as
// json.Encoder writes it.
func appendStats(b []byte, st query.Stats) []byte {
	b = append(b, `{"stats":{"queries":`...)
	b = strconv.AppendInt(b, st.Queries, 10)
	b = append(b, `,"whatif_retraced":`...)
	b = strconv.AppendInt(b, st.WhatIfRetraced, 10)
	b = append(b, `,"whatif_reused":`...)
	b = strconv.AppendInt(b, st.WhatIfReused, 10)
	return append(b, "}}\n"...)
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it without HTML escaping: quote, backslash and control bytes,
// U+2028 and U+2029, and each byte of invalid UTF-8 as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

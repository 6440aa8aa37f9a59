package server

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The served replies — RunResponse, CodegenResponse and errorBody — are
// encoded by hand, without reflection: a reply appends itself exactly as
// json.MarshalIndent(v, "", "  ") writes it, and writeReply adds the
// newline writeJSON adds. FuzzReplyMatchesMarshalIndent holds each of
// them to encoding/json byte for byte, escaping included.

// reply is a response body that encodes itself.
type reply interface {
	AppendJSON(b []byte) []byte
}

// replyBufs recycles reply buffers; maxPooledReply bounds the ones kept.
var replyBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledReply = 64 << 10

// writeReply is writeJSON for a reply: it is encoded before the header
// is written, into a pooled buffer that the response writer copies.
func writeReply(w http.ResponseWriter, code int, r reply) {
	buf := replyBufs.Get().(*[]byte)
	b := append(r.AppendJSON((*buf)[:0]), '\n')
	writeBody(w, code, b)
	if cap(b) <= maxPooledReply {
		*buf = b
		replyBufs.Put(buf)
	}
}

// AppendJSON appends the reply as json.MarshalIndent(r, "", "  ") writes it.
func (r *RunResponse) AppendJSON(b []byte) []byte {
	e := jsonw{b: b}
	e.open('{')
	e.str("id", r.ID)
	if len(r.Warnings) > 0 {
		e.strs("warnings", r.Warnings)
	}
	res := &r.Result
	e.str("status", string(res.Status))
	if res.Error != "" {
		e.str("error", res.Error)
	}
	e.strs("trace", res.Trace)
	if res.TraceDropped != 0 {
		e.num("trace_dropped", int64(res.TraceDropped))
	}
	e.strs("stage", res.Stage)
	e.num("scripts", int64(res.Scripts))
	e.num("rounds", res.Rounds)
	e.num("steps", res.Steps)
	e.num("timesteps", res.Timesteps)
	e.num("queue_ms", res.QueueMS)
	e.num("run_ms", res.RunMS)
	e.close('}')
	return e.b
}

// AppendJSON appends the reply as json.MarshalIndent(r, "", "  ") writes it.
func (r *CodegenResponse) AppendJSON(b []byte) []byte {
	e := jsonw{b: b}
	e.open('{')
	e.str("lang", r.Lang)
	e.str("source", r.Source)
	if len(r.Warnings) > 0 {
		e.strs("warnings", r.Warnings)
	}
	e.close('}')
	return e.b
}

// AppendJSON appends the reply as json.MarshalIndent(r, "", "  ") writes it.
func (r *errorBody) AppendJSON(b []byte) []byte {
	e := jsonw{b: b}
	e.open('{')
	e.str("error", r.Error)
	if len(r.Findings) > 0 {
		e.strs("findings", r.Findings)
	}
	e.close('}')
	return e.b
}

// jsonw appends a JSON value in MarshalIndent's layout with a two-space
// indent. Keys are written as given: they must need no escaping.
type jsonw struct {
	b     []byte
	depth int
	// empty: the innermost open object or array has no member yet.
	empty bool
}

func (e *jsonw) open(c byte) {
	e.b = append(e.b, c)
	e.depth++
	e.empty = true
}

func (e *jsonw) close(c byte) {
	e.depth--
	if !e.empty {
		e.newline()
	}
	e.b = append(e.b, c)
	e.empty = false
}

func (e *jsonw) newline() {
	e.b = append(e.b, '\n')
	for i := 0; i < e.depth; i++ {
		e.b = append(e.b, "  "...)
	}
}

// member starts the next member of the open object or array.
func (e *jsonw) member() {
	if !e.empty {
		e.b = append(e.b, ',')
	}
	e.empty = false
	e.newline()
}

func (e *jsonw) key(k string) {
	e.member()
	e.b = append(append(append(e.b, '"'), k...), `": `...)
}

func (e *jsonw) str(k, v string) {
	e.key(k)
	e.b = appendString(e.b, v)
}

func (e *jsonw) num(k string, v int64) {
	e.key(k)
	e.b = strconv.AppendInt(e.b, v, 10)
}

// strs writes a string slice: null when nil, as encoding/json does.
func (e *jsonw) strs(k string, vs []string) {
	e.key(k)
	if vs == nil {
		e.b = append(e.b, "null"...)
		return
	}
	e.open('[')
	for _, v := range vs {
		e.member()
		e.b = appendString(e.b, v)
	}
	e.close(']')
}

// appendString quotes s as encoding/json does with HTML escaping on:
// <, > and & are escaped too, U+2028 and U+2029 are escaped, and each
// byte of invalid UTF-8 becomes U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
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
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

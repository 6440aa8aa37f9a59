package progcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"hash"
	"sync"
)

// This file reads the request envelope and computes Tier A's key from it.
// Both live here because the key is this package's decision: the server
// keys its project cache with it, and the shard router places requests
// with it, so identical programs land on the shard whose cache holds them.
//
// The key is taken over the program source exactly as the request carried
// it: the JSON string token, still escaped. A cached request therefore
// never unquotes its project; only a miss does, right before parsing.
// Two bodies that escape one program differently get two keys, which
// costs a miss, never a wrong answer.

// Envelope is one run or codegen request body. It holds the union of the
// server's RunRequest and CodegenRequest fields; each endpoint reads its
// own.
type Envelope struct {
	Project, Script Source
	Format, Lang    string

	TimeoutMS, MaxSteps, MaxRounds, MaxTraceLines int64

	scanned bool // read by ScanEnvelope, so Project and Script are tokens
}

// Source is a program source as a request carried it: the raw JSON string
// token ScanEnvelope kept, or text that encoding/json already decoded.
type Source struct {
	tok  []byte // quotes included, still escaped; nil for decoded text
	text string
}

// Text wraps a source that is already decoded.
func Text(s string) Source { return Source{text: s} }

// Empty reports whether the source is the empty string. A token unquotes
// to nothing only when it is "", since every escape yields a character.
func (s Source) Empty() bool { return len(s.tok) <= 2 && s.text == "" }

// String returns the decoded source, unquoting a token with encoding/json
// so it decodes exactly as a field of the request type would.
func (s Source) String() string {
	if s.tok == nil {
		return s.text
	}
	var out string
	if err := json.Unmarshal(s.tok, &out); err != nil {
		panic("progcache: unquote a token ScanEnvelope accepted: " + err.Error())
	}
	return out
}

// ScanEnvelope reads body when it has the shape every client in this
// repository sends: one flat JSON object whose keys are exactly the
// lower-case field names of the run and codegen requests, whose project,
// script, format and lang are strings, and whose timeout_ms, max_steps,
// max_rounds and max_trace_lines are plain integers. Format and lang
// must be ASCII without escapes. Project and script are checked
// as JSON strings but kept raw.
//
// ok is false for every other body: a key in another case or with an
// escape, an unknown field, a nested value, null, a number that is not a
// plain integer in range, or anything malformed. The caller then decodes
// the same bytes with encoding/json, which stays the reference and the
// error path; this scanner only accepts. Like json.Decoder.Decode, it
// stops at the object's closing brace and ignores what follows.
func ScanEnvelope(body []byte) (env Envelope, ok bool) {
	s := scanner{b: body}
	if !s.skip('{') {
		return Envelope{}, false
	}
	if s.skip('}') {
		env.scanned = true
		return env, true
	}
	for {
		key, ok := s.str()
		if !ok || !s.skip(':') {
			return Envelope{}, false
		}
		switch string(key[1 : len(key)-1]) {
		case "project":
			env.Project.tok, ok = s.str()
		case "script":
			env.Script.tok, ok = s.str()
		case "format":
			env.Format, ok = s.plain()
		case "lang":
			env.Lang, ok = s.plain()
		case "timeout_ms":
			env.TimeoutMS, ok = s.int(false)
		case "max_steps":
			env.MaxSteps, ok = s.int(false)
		case "max_rounds":
			env.MaxRounds, ok = s.int(true)
		case "max_trace_lines":
			env.MaxTraceLines, ok = s.int(true)
		default:
			ok = false
		}
		switch {
		case !ok:
			return Envelope{}, false
		case s.skip(','):
		case s.skip('}'):
			env.scanned = true
			return env, true
		default:
			return Envelope{}, false
		}
	}
}

// scanner walks a body left to right; every method leaves i past what it
// consumed.
type scanner struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (s *scanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// skip consumes whitespace, then c, then whitespace; it reports whether c
// was there.
func (s *scanner) skip(c byte) bool {
	s.space()
	if s.i == len(s.b) || s.b[s.i] != c {
		return false
	}
	s.i++
	s.space()
	return true
}

// str consumes a JSON string and returns its token, quotes included. It
// refuses what encoding/json refuses (control characters and malformed
// escapes); other bytes, invalid UTF-8 included, are left for unquoting.
func (s *scanner) str() (tok []byte, ok bool) {
	b, start := s.b, s.i
	if start == len(b) || b[start] != '"' {
		return nil, false
	}
	for i := start + 1; i < len(b); i++ {
		c := b[i]
		switch {
		case plainByte[c]:
		case c == '"':
			s.i = i + 1
			return b[start:s.i], true
		case c != '\\' || i+1 == len(b): // a control character
			return nil, false
		default:
			i++
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return nil, false
				}
				i += 4
			default:
				return nil, false
			}
		}
	}
	return nil, false
}

// plainByte marks the bytes a string token carries as they are: all but
// the quote, the backslash and the control characters.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 256; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// plain consumes a string whose token is its value: ASCII with no
// escapes.
func (s *scanner) plain() (string, bool) {
	tok, ok := s.str()
	if !ok {
		return "", false
	}
	v := tok[1 : len(tok)-1]
	for _, c := range v {
		if c == '\\' || c >= 0x80 {
			return "", false
		}
	}
	return string(v), true
}

// int consumes a JSON integer, -?(0|[1-9][0-9]*), that fits an int64 (an
// int when isInt). A leading zero before another digit or an overflow
// refuses it, and so does a fraction or an exponent, since what follows
// the digits must then close the value.
func (s *scanner) int(isInt bool) (int64, bool) {
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var u uint64
	for ; s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9'; s.i++ {
		if u > (1<<63)/10 {
			return 0, false
		}
		u = u*10 + uint64(s.b[s.i]-'0')
	}
	n := s.i - start
	switch {
	case n == 0 || n > 1 && s.b[start] == '0':
		return 0, false
	case u > 1<<63 || !neg && u == 1<<63:
		return 0, false
	}
	v := int64(u) // 1<<63 wraps to the minimum, which only -u reaches
	if neg {
		v = -v
	}
	if isInt && int64(int(v)) != v {
		return 0, false
	}
	return v, true
}

// Key domains: a key hashes one of these tags first, so keys of different
// material never collide.
const (
	keyProject byte = iota + 1 // a scanned project token
	keyScript                  // a scanned script token, when the project is empty
	keyBody                    // a whole body the scanner refused
	keyText                    // a decoded source (Projects.Get)
)

// Key is Tier A's content address of a request body, and the shard
// router's placement key. For a scanned body it hashes the raw project
// token (the script token when the project is empty) with the normalised
// format. For any other body it hashes the body's own bytes, since the
// router reads no JSON: body must be the bytes the envelope came from.
func (e *Envelope) Key(body []byte) string {
	switch {
	case !e.scanned:
		return tierAKey(keyBody, "", body, "")
	case e.Project.Empty() && !e.Script.Empty():
		return tierAKey(keyScript, normFormat(e.Format), inner(e.Script.tok), "")
	default:
		return tierAKey(keyProject, normFormat(e.Format), inner(e.Project.tok), "")
	}
}

// RequestKey scans body and returns its Key: the router's placement key.
func RequestKey(body []byte) string {
	env, _ := ScanEnvelope(body)
	return env.Key(body)
}

// inner strips a token's quotes.
func inner(tok []byte) []byte {
	if len(tok) < 2 {
		return nil
	}
	return tok[1 : len(tok)-1]
}

// normFormat folds the ASCII case of a format the server knows, which
// parses alike in any case. Any other format keeps its bytes: the server's
// error for it quotes the format as sent.
func normFormat(f string) string {
	for _, known := range [...]string{"auto", "sblk", "text", "xml"} {
		if len(f) == len(known) && equalFoldASCII(f, known) {
			return known
		}
	}
	return f
}

func equalFoldASCII(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// keyHasher is a SHA-256 state with scratch space for the key's prefix,
// for string input and for the digest, pooled so that computing a key
// allocates only the key itself.
type keyHasher struct {
	h   hash.Hash
	buf [512]byte
}

var keyHashers = sync.Pool{New: func() any { return &keyHasher{h: sha256.New()} }}

// writeString hashes s through the scratch buffer, without copying s to
// the heap.
func (k *keyHasher) writeString(s string) {
	for len(s) > 0 {
		n := copy(k.buf[:], s)
		k.h.Write(k.buf[:n])
		s = s[n:]
	}
}

// tierAKey hashes the domain tag, the length-prefixed format (so the
// format/source boundary cannot shift), then the source, given as raw
// bytes or as text.
func tierAKey(tag byte, format string, raw []byte, text string) string {
	k := keyHashers.Get().(*keyHasher)
	k.h.Reset()
	k.buf[0] = tag
	binary.LittleEndian.PutUint64(k.buf[1:9], uint64(len(format)))
	k.h.Write(k.buf[:9])
	k.writeString(format)
	k.h.Write(raw)
	k.writeString(text)
	key := string(k.h.Sum(k.buf[:0]))
	keyHashers.Put(k)
	return key
}

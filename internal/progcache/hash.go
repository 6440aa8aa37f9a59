package progcache

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/blocks"
	"repro/internal/value"
)

// This file defines the structural content addresses. (Tier A's key is
// the request's raw program token; see envelope.go.) Tier B's key is a
// canonical binary encoding of a shipped ring's structure: every node and
// value is written with an explicit type tag and every variable-length
// field with a length prefix, so two rings collide only if they are structurally identical.
// (Describe() strings are NOT used: they are for humans and would
// conflate e.g. the text "5" with the number 5.)
//
// Hashing is deliberately partial, mirroring the compiler: a ring whose
// literals carry opaque host values (or a captured environment) has no
// stable content address, and hashRing reports ok=false — the caller
// then skips the cache entirely rather than risking a collision.

// node/value type tags of the canonical encoding.
const (
	tagBlock byte = iota + 1
	tagScript
	tagLiteral
	tagEmptySlot
	tagVarGet
	tagRingNode
	tagScriptNode
	tagNilNode

	tagNothing
	tagBool
	tagNumber
	tagText
	tagList
	tagRingValue
)

// hasher accumulates the canonical encoding in one buffer that is hashed
// at the end: a streaming hash.Hash costs an interface call (and usually a
// heap-escaping slice header) per field, which dominates hashing the
// tens-to-hundreds of bytes a typical ring encodes to. len(buf) doubles as
// the cache-cost proxy for the compiled artifact.
type hasher struct {
	buf []byte
	ok  bool
}

func newHasher() *hasher {
	return &hasher{buf: make([]byte, 0, 256), ok: true}
}

// sum finalizes the content address over the accumulated encoding.
func (w *hasher) sum() (key string, cost int64) {
	d := sha256.Sum256(w.buf)
	return string(d[:]), int64(len(w.buf))
}

func (w *hasher) write(p []byte) { w.buf = append(w.buf, p...) }

func (w *hasher) tag(t byte) { w.buf = append(w.buf, t) }

func (w *hasher) uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.buf = append(w.buf, b[:]...)
}

func (w *hasher) str(s string) {
	w.uint64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *hasher) strs(ss []string) {
	w.uint64(uint64(len(ss)))
	for _, s := range ss {
		w.str(s)
	}
}

func (w *hasher) node(n blocks.Node) {
	if !w.ok {
		return
	}
	switch x := n.(type) {
	case nil:
		w.tag(tagNilNode)
	case *blocks.Block:
		w.tag(tagBlock)
		w.str(x.Op)
		w.uint64(uint64(len(x.Inputs)))
		for _, in := range x.Inputs {
			w.node(in)
		}
	case *blocks.Script:
		w.tag(tagScript)
		w.uint64(uint64(x.Len()))
		if x != nil {
			for _, b := range x.Blocks {
				w.node(b)
			}
		}
	case blocks.Literal:
		w.tag(tagLiteral)
		w.value(x.Val)
	case blocks.EmptySlot:
		w.tag(tagEmptySlot)
	case blocks.VarGet:
		w.tag(tagVarGet)
		w.str(x.Name)
	case blocks.RingNode:
		w.tag(tagRingNode)
		w.strs(x.Params)
		w.node(x.Body)
	case blocks.ScriptNode:
		w.tag(tagScriptNode)
		w.node(x.Script)
	default:
		w.ok = false
	}
}

func (w *hasher) value(v value.Value) {
	if !w.ok {
		return
	}
	switch x := v.(type) {
	case nil, value.Nothing:
		w.tag(tagNothing)
	case value.Bool:
		w.tag(tagBool)
		if x {
			w.write([]byte{1})
		} else {
			w.write([]byte{0})
		}
	case value.Number:
		w.tag(tagNumber)
		w.uint64(math.Float64bits(float64(x)))
	case value.Text:
		w.tag(tagText)
		w.str(string(x))
	case *value.List:
		w.tag(tagList)
		w.uint64(uint64(x.Len()))
		for i := 1; i <= x.Len(); i++ {
			w.value(x.MustItem(i))
		}
	case *blocks.Ring:
		// A ring flowing as a literal value (the compiler refuses
		// these, but the refusal itself is cacheable) — only without a
		// captured environment, which has no stable content address.
		if x.Env != nil {
			w.ok = false
			return
		}
		w.tag(tagRingValue)
		w.strs(x.Params)
		w.node(x.Body)
	default:
		w.ok = false // opaque host values have no content address
	}
}

// hashRing computes the structural content address of a shipped ring.
// ok is false when the ring has no stable address (captured environment,
// opaque literals); cost is the number of canonical bytes encoded, the
// byte-budget price of the cached compile outcome.
func hashRing(r *blocks.Ring) (key string, cost int64, ok bool) {
	if r == nil || r.Env != nil {
		return "", 0, false
	}
	w := newHasher()
	w.strs(r.Params)
	w.node(r.Body)
	if !w.ok {
		return "", 0, false
	}
	key, cost = w.sum()
	return key, cost, true
}

// hashRingPair computes the content address of an ordered pair of
// shipped rings, the key of a mapReduce kernel set in the ring tier. The
// encoding opens with a parameter count no ring can have, so a pair never
// shares an encoding (and so a key) with a single ring; each ring's own
// encoding is self-delimiting, so the pair's is unambiguous.
func hashRingPair(a, b *blocks.Ring) (key string, cost int64, ok bool) {
	if a == nil || b == nil || a.Env != nil || b.Env != nil {
		return "", 0, false
	}
	w := newHasher()
	w.uint64(math.MaxUint64)
	for _, r := range [2]*blocks.Ring{a, b} {
		w.strs(r.Params)
		w.node(r.Body)
	}
	if !w.ok {
		return "", 0, false
	}
	key, cost = w.sum()
	return key, cost, true
}

// hashBody computes Tier A's content address of a decoded source (see
// Projects.Get): its own key domain, so it never shares a key with the
// raw tokens the server keys on (see Envelope.Key).
func hashBody(src, format string) string {
	return tierAKey(keyText, normFormat(format), nil, src)
}

// hashScript computes the structural content address of a whole script
// body, the key of the "script" tier (lowered bytecode programs). ok is
// false when any literal defeats structural hashing (opaque payloads,
// environment-carrying rings); cost prices the canonical encoding.
func hashScript(s *blocks.Script) (key string, cost int64, ok bool) {
	if s == nil {
		return "", 0, false
	}
	w := newHasher()
	w.node(s)
	if !w.ok {
		return "", 0, false
	}
	key, cost = w.sum()
	return key, cost, true
}

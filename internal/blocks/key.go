package blocks

import (
	"math"

	"repro/internal/value"
)

// Tags of the canonical encoding. They start at 1, so no encoding begins
// with a zero byte.
const (
	keyBlock byte = iota + 1
	keyScript
	keyLiteral
	keyEmptySlot
	keyVarGet
	keyRingNode
	keyScriptNode
	keyNilNode
	keyNilScript
	keyNilVal
	keyNothing
	keyBool
	keyNumber
	keyText
	keyList
)

// AppendKey appends the canonical structural encoding of n to dst: the
// one place that decides what part of a block AST can be
// content-addressed. Every node and value carries a type tag and every
// variable-length field a length prefix, so two trees encode alike only
// if they are structurally identical, and each encoding is
// self-delimiting. (Describe() strings are not used: they would conflate
// the text "5" with the number 5.) No encoding begins with a zero byte,
// so a caller may open a key domain of its own with one.
//
// Literals are certified only for nil, Nothing, Bool, Number, Text and
// lists of those; nil and Nothing stay distinct. Anything else (opaque
// host values, ring-valued literals) has no stable content address, and
// ok is false: the caller then skips its cache rather than risk a
// collision.
func AppendKey(dst []byte, n Node) (_ []byte, ok bool) {
	switch e := n.(type) {
	case nil:
		return append(dst, keyNilNode), true
	case *Block:
		if e == nil {
			return dst, false
		}
		dst = appendLen(appendStr(append(dst, keyBlock), e.Op), len(e.Inputs))
		for _, in := range e.Inputs {
			if dst, ok = AppendKey(dst, in); !ok {
				return dst, false
			}
		}
		return dst, true
	case *Script:
		if e == nil {
			return append(dst, keyNilScript), true
		}
		dst = appendLen(append(dst, keyScript), len(e.Blocks))
		for _, b := range e.Blocks {
			if dst, ok = AppendKey(dst, b); !ok {
				return dst, false
			}
		}
		return dst, true
	case Literal:
		return appendValue(append(dst, keyLiteral), e.Val)
	case EmptySlot:
		return append(dst, keyEmptySlot), true
	case VarGet:
		return appendStr(append(dst, keyVarGet), e.Name), true
	case RingNode:
		dst = appendLen(append(dst, keyRingNode), len(e.Params))
		for _, p := range e.Params {
			dst = appendStr(dst, p)
		}
		return AppendKey(dst, e.Body)
	case ScriptNode:
		return AppendKey(append(dst, keyScriptNode), e.Script)
	}
	return dst, false
}

func appendValue(dst []byte, v value.Value) (_ []byte, ok bool) {
	switch e := v.(type) {
	case nil:
		return append(dst, keyNilVal), true
	case value.Nothing:
		return append(dst, keyNothing), true
	case value.Bool:
		if e {
			return append(dst, keyBool, 1), true
		}
		return append(dst, keyBool, 0), true
	case value.Number:
		return appendU64(append(dst, keyNumber), math.Float64bits(float64(e))), true
	case value.Text:
		return appendStr(append(dst, keyText), string(e)), true
	case *value.List:
		dst = appendLen(append(dst, keyList), e.Len())
		for _, it := range e.Items() {
			if dst, ok = appendValue(dst, it); !ok {
				return dst, false
			}
		}
		return dst, true
	}
	return dst, false
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// appendLen writes one byte for the common small length, escaped to
// eight bytes above.
func appendLen(dst []byte, n int) []byte {
	if n < 0xff {
		return append(dst, byte(n))
	}
	return appendU64(append(dst, 0xff), uint64(n))
}

func appendStr(dst []byte, s string) []byte {
	return append(appendLen(dst, len(s)), s...)
}

package progcache

import (
	"crypto/sha256"

	"repro/internal/blocks"
)

// This file defines Tier B's structural content addresses. (Tier A's key
// is the request's raw program token; see envelope.go.) A shipped ring's
// key is the SHA-256 of its canonical encoding: blocks.AppendKey of the
// ring as the RingNode it was reified from. Hashing is deliberately
// partial, mirroring the compiler: a ring that captured an environment,
// or whose literals AppendKey refuses, has no stable content address, and
// the caller skips the cache entirely rather than risk a collision.

// pairDomain opens the encoding of a ring pair. No single ring's encoding
// begins with a zero byte, so a pair never shares an encoding (and so a
// key) with a single ring; each ring's encoding is self-delimiting, so
// the pair's is unambiguous.
const pairDomain byte = 0

// appendRing appends r's canonical encoding; ok is false when r has no
// stable content address.
func appendRing(dst []byte, r *blocks.Ring) ([]byte, bool) {
	if r == nil || r.Env != nil {
		return dst, false
	}
	return blocks.AppendKey(dst, blocks.RingNode{Body: r.Body, Params: r.Params})
}

// appendPair appends the encoding of the ordered pair (a, b).
func appendPair(dst []byte, a, b *blocks.Ring) ([]byte, bool) {
	dst, ok := appendRing(append(dst, pairDomain), a)
	if !ok {
		return dst, false
	}
	return appendRing(dst, b)
}

// hashRing computes the content address of a shipped ring. cost, the
// number of canonical bytes encoded, is the byte-budget price of the
// cached compile outcome.
func hashRing(r *blocks.Ring) (key string, cost int64, ok bool) {
	var buf [256]byte
	return contentKey(appendRing(buf[:0], r))
}

// hashRingPair computes the content address of an ordered pair of
// shipped rings, the key of a mapReduce kernel set in the ring tier.
func hashRingPair(a, b *blocks.Ring) (key string, cost int64, ok bool) {
	var buf [256]byte
	return contentKey(appendPair(buf[:0], a, b))
}

func contentKey(enc []byte, ok bool) (string, int64, bool) {
	if !ok {
		return "", 0, false
	}
	d := sha256.Sum256(enc)
	return string(d[:]), int64(len(enc)), true
}

// hashBody computes Tier A's content address of a decoded source (see
// Projects.Get): its own key domain, so it never shares a key with the
// raw tokens the server keys on (see Envelope.Key).
func hashBody(src, format string) string {
	return tierAKey(keyText, normFormat(format), nil, src)
}

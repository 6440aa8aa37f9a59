//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package shard

// idleOpen cannot peek without waiting on this platform, so it trusts the
// pooled connection: one the backend closed fails the exchange before any
// reply byte, which replays the request as unsent.
func idleOpen(*backendConn) bool { return true }

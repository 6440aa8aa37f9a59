//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package shard

import "syscall"

// idleOpen reports whether the backend still holds a pooled connection
// open, by a peek that does not wait: nothing to read means open. End of
// stream means the backend closed it (its idle timeout, or a shutdown),
// and a byte means it sent one unasked; neither connection can carry a
// request.
func idleOpen(bc *backendConn) bool {
	sc, ok := bc.conn.(syscall.Conn)
	if !ok {
		return true
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	err = raw.Read(func(fd uintptr) bool {
		_, _, rerr := syscall.Recvfrom(int(fd), bc.peek[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
		open = rerr == syscall.EAGAIN
		return true
	})
	return err == nil && open
}

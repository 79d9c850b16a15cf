//go:build unix

package gateway

import (
	"net"
	"syscall"
)

// idleCheck looks for what arrived on a parked connection while it sat
// idle: bytes no request asked for, or the replica's close. It peeks at
// the socket without blocking and without consuming anything.
type idleCheck struct {
	raw syscall.RawConn // nil when the connection has no socket
	// peek, bound once per connection, is the RawConn callback; it sets
	// dirty.
	peek  func(fd uintptr) bool
	buf   [1]byte
	dirty bool
}

// bind sets the check up for nc.
func (ic *idleCheck) bind(nc net.Conn) {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return
	}
	raw, err := sc.SyscallConn()
	if err != nil {
		return
	}
	ic.raw, ic.peek = raw, ic.peekNow
}

// peekNow is one non-blocking MSG_PEEK read: anything but "nothing to
// read yet" (a byte, the end of the stream, an error) is dirty.
func (ic *idleCheck) peekNow(fd uintptr) bool {
	_, _, err := syscall.Recvfrom(int(fd), ic.buf[:], syscall.MSG_PEEK|syscall.MSG_DONTWAIT)
	ic.dirty = err != syscall.EAGAIN
	return true
}

// unsolicited reports whether anything arrived on the connection since
// its last answer was read. The read deadline must not have passed.
func (ic *idleCheck) unsolicited() bool {
	if ic.raw == nil {
		return false
	}
	if err := ic.raw.Read(ic.peek); err != nil {
		return true
	}
	return ic.dirty
}

//go:build !unix

package gateway

import "net"

// idleCheck is a no-op where the socket cannot be peeked at without
// blocking: only an answer's leftover bytes keep a connection unparked.
type idleCheck struct{}

func (*idleCheck) bind(net.Conn) {}

func (*idleCheck) unsolicited() bool { return false }

package obs

import (
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync/atomic"
)

// Request-ID generation: a random per-process prefix plus an atomic
// sequence number, so IDs are unique across restarts without
// coordination and cheap to mint under load.
var (
	ridPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "00000000"
		}
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID mints a process-unique request ID of the form
// "prefix-seq", seq in hex. Used when a request arrives without an
// X-Request-ID. The ID is built on the stack and converted once, so it
// costs one allocation at any sequence.
func NewRequestID() string {
	var b [32]byte
	id := append(b[:0], ridPrefix...)
	id = append(id, '-')
	return string(strconv.AppendUint(id, ridSeq.Add(1), 16))
}

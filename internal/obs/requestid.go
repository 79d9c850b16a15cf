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
// "prefix-seq". Used when a request arrives without an X-Request-ID.
func NewRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridSeq.Add(1), 16)
}

package gateway

import (
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over a fixed replica fleet. Each
// replica owns DefaultVNodes points on the ring (hashes of "id#v"), so
// key ranges interleave finely and a down replica's load spreads
// across every survivor instead of dumping onto one neighbour.
//
// The ring itself is immutable after construction: health is an input
// to lookup (OwnerAlive's alive predicate), not ring state. That is
// what makes failover minimally disruptive by construction — marking a
// replica down does not move any other replica's points, so every key
// owned by a live replica keeps its owner, and when the down replica
// recovers its points are simply consulted again, reclaiming exactly
// its old range.
type Ring struct {
	points []ringPoint
}

// ringPoint is one virtual node: a position on the ring and the
// replica that owns it.
type ringPoint struct {
	hash    uint64
	replica int
}

// DefaultVNodes is the per-replica virtual-node count of every
// gateway's ring: high enough that the key split across a small fleet
// stays within a few percent of uniform, and a constant because two
// gateways of one fleet that disagreed on it would route the same key
// to different replicas.
const DefaultVNodes = 256

// NewRing builds the ring for the given replica IDs. vnodes <= 0 uses
// DefaultVNodes. Replica identity is positional: lookup results index
// into ids.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{points: make([]ringPoint, 0, len(ids)*vnodes)}
	for i, id := range ids {
		for v := 0; v < vnodes; v++ {
			h := hashString(id + "#" + strconv.Itoa(v))
			r.points = append(r.points, ringPoint{hash: h, replica: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		return r.points[a].replica < r.points[b].replica
	})
	return r
}

// Owner returns the replica owning key: the replica of the first ring
// point at or after key, wrapping at the top. -1 on an empty ring.
func (r *Ring) Owner(key uint64) int {
	if len(r.points) == 0 {
		return -1
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].replica
}

// OwnerAlive returns the owner of key among replicas for which alive
// reports true: the ring is walked clockwise from the key's position
// and the first point belonging to a live replica wins. Keys whose
// Owner is alive always resolve to that owner (minimal disruption);
// keys of a dead replica resolve to the next live point, which spreads
// the dead replica's range across the survivors vnode by vnode.
// Returns -1 when no replica is alive.
func (r *Ring) OwnerAlive(key uint64, alive func(int) bool) int {
	if len(r.points) == 0 {
		return -1
	}
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	for k := 0; k < len(r.points); k++ {
		p := r.points[(start+k)%len(r.points)]
		if alive(p.replica) {
			return p.replica
		}
	}
	return -1
}

// hashString is 64-bit FNV-1a with a splitmix64 finalizer —
// deterministic across processes, so a restarted gateway (or a second
// gateway instance in front of the same fleet) routes every key
// identically. The finalizer matters: raw FNV-1a of short, similar
// strings (replica vnode labels, "src>dst" pairs) has weak avalanche
// in its upper bits, and ring ordering is dominated by exactly those
// bits — without mixing, vnode positions cluster and the key split
// drifts tens of percent from uniform.
func hashString(s string) uint64 { return mix64(fnvFold(fnvOffset64, s)) }

// FNV-1a, 64 bit: fnvFold folds s into the running state h, so a key
// made of several pieces hashes without being concatenated first.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvFold[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// keyForPairStrings is hashString(a + ">" + b).
func keyForPairStrings(a, b string) uint64 {
	return mix64(fnvFold(fnvFold(fnvFold(fnvOffset64, a), ">"), b))
}

// mix64 is the splitmix64 finalization step: full-avalanche mixing so
// every input bit diffuses into the ordering-critical upper bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// KeyForPair is the routing key of a (source, dest) query: every
// request for the same vertex pair lands on the same replica, so that
// replica's epoch-validated route cache stays hot for its key range.
func KeyForPair(source, dest int) uint64 {
	var buf [2 * 10]byte
	b := strconv.AppendInt(buf[:0], int64(source), 10)
	b = append(b, '>')
	b = strconv.AppendInt(b, int64(dest), 10)
	return mix64(fnvFold(fnvOffset64, b))
}

// KeyForString hashes an arbitrary request identity (e.g. a /pairsum
// edge pair or a /sample parameter set) onto the ring's key space.
func KeyForString(s string) uint64 { return hashString(s) }

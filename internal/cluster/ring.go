package cluster

import (
	"fmt"
	"sort"
)

// vnodesPerReplica is the number of virtual points each replica contributes
// to the hash ring. 64 vkeys per replica keeps the ownership split within ~2×
// of fair share (pinned by TestRingDistributionBound) while the ring stays
// small enough that ownership lookups are a cheap binary search.
const vnodesPerReplica = 64

// ringPoint is one virtual node: a position on the ring owned by a replica.
type ringPoint struct {
	hash    uint64
	replica int
}

// Ring is a consistent-hash ring over replica indexes 0..N-1. Every result
// key hashes to a position on the ring; the first virtual node at or after
// that position (wrapping) names the key's owning replica. The ring is
// immutable after construction and safe for concurrent use.
//
// Consistent hashing is what makes the routing tier cache-friendly: adding
// or removing one replica reassigns only ~1/N of the key space, so a scaling
// event doesn't cold-start every cache in the cluster.
type Ring struct {
	replicas int
	points   []ringPoint
}

// NewRing builds a ring over replicas replicas with vnodesPerReplica virtual
// points each. replicas < 1 is clamped to 1 — a one-replica ring owns
// everything, which is the degenerate single-gateway deployment.
func NewRing(replicas int) *Ring {
	if replicas < 1 {
		replicas = 1
	}
	r := &Ring{
		replicas: replicas,
		points:   make([]ringPoint, 0, replicas*vnodesPerReplica),
	}
	for rep := 0; rep < replicas; rep++ {
		for v := 0; v < vnodesPerReplica; v++ {
			// FNV alone clumps on short structured strings; the avalanche
			// finalizer spreads the points enough to hold the 2x-fair-share
			// ownership bound the distribution test pins.
			h := avalanche(hash64(fmt.Sprintf("replica-%d/vnode-%d", rep, v)))
			r.points = append(r.points, ringPoint{hash: h, replica: rep})
		}
	}
	// Deterministic order even under (astronomically unlikely) hash
	// collisions: tie-break on replica index.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].replica < r.points[j].replica
	})
	return r
}

// Replicas returns the number of replicas on the ring.
func (r *Ring) Replicas() int { return r.replicas }

// Owner returns the replica owning a key hash: the replica of the first
// virtual node clockwise from the hash.
func (r *Ring) Owner(key uint64) int {
	return r.points[r.search(key)].replica
}

// search returns the index of the first point with hash >= key, wrapping to
// 0 past the end.
func (r *Ring) search(key uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		return 0
	}
	return i
}

// OwnerAmong returns the first replica clockwise from the key that passes
// ok — ownership restricted to a subset of the ring without rebuilding it.
// This is how membership changes stay cheap: excluding one replica from
// the live set moves only the keys that replica owned (~1/N of the space)
// to their next-clockwise survivors, and the moment it passes ok again
// those keys return to it. Returns (-1, false) when nothing passes.
func (r *Ring) OwnerAmong(key uint64, ok func(replica int) bool) (int, bool) {
	start := r.search(key)
	seen := make([]bool, r.replicas)
	checked := 0
	for i := 0; i < len(r.points) && checked < r.replicas; i++ {
		rep := r.points[(start+i)%len(r.points)].replica
		if seen[rep] {
			continue
		}
		seen[rep] = true
		checked++
		if ok(rep) {
			return rep, true
		}
	}
	return -1, false
}

// Sequence returns every replica in failover order for a key: the owner
// first, then each further replica in the order their virtual nodes appear
// clockwise. The order is deterministic per key, so two routers (or two
// retries) agree on where a key fails over to.
func (r *Ring) Sequence(key uint64) []int {
	seq := make([]int, 0, r.replicas)
	seen := make([]bool, r.replicas)
	start := r.search(key)
	for i := 0; len(seq) < r.replicas; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.replica] {
			seen[p.replica] = true
			seq = append(seq, p.replica)
		}
	}
	return seq
}

// hash64 is 64-bit FNV-1a, the same family middleware.ResultKey.Hash
// uses; the ring only needs a fast, stable, well-mixed hash.
func hash64(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 folds one value into a running FNV-style hash.
func mix64(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

// avalanche is the 64-bit murmur3 finalizer: full-width bit diffusion for
// hashes of short, structured inputs.
func avalanche(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

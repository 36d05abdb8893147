// Package cluster turns N c2bound-server processes into one logical
// memo cache: a consistent-hash ring with virtual nodes routes each
// (fingerprint, point) key — engine.KeyHash of the point under the
// fingerprint's engine.KeySeed, the exact memo key the cache uses
// internally — to an owner peer, an internal peer-eval exchange
// forwards remote-owned points to their owner, and
// per-peer circuit breakers plus health probing keep degradation
// graceful: any peer failure falls back to local computation, which is
// bit-identical because every family kernel is deterministic, so the
// cluster can only ever lose cache locality, never correctness.
//
// Membership is a static peers.json table (hot-reloaded on SIGHUP by
// the CLI, mirroring the tenant-table machinery); health probing ejects
// unresponsive peers from the ring and readmits them when they return.
// DESIGN.md §15 carries the full architecture.
package cluster

import (
	"sort"
	"strconv"
)

// DefaultVirtualNodes is the per-peer vnode count when the membership
// file names none. 128 vnodes keep the worst-case shard imbalance well
// under the 15% budget for small clusters (see TestRingBalance).
const DefaultVirtualNodes = 128

// maxVirtualNodes bounds Config.VirtualNodes: the ring holds that many
// entries per peer and is rebuilt on every membership change, so a typo
// such as 1280000 fails validation instead of costing memory.
const maxVirtualNodes = 1 << 12

// fnvOffset/fnvPrime are the FNV-1a constants; identical to the
// engine's, so vnode placement is deterministic across processes and
// architectures.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// fnvString hashes a vnode label: FNV-1a with a splitmix64 finalizer.
// Raw FNV-1a avalanches poorly on short labels ("a#0" … "a#127"), which
// clumps vnode positions and wrecks shard balance; the finalizer — the
// same mix the engine's point hash uses — spreads them uniformly while
// keeping placement fully deterministic.
func fnvString(s string) uint64 {
	h := fnvOffset
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ring is an immutable consistent-hash ring: vnode positions sorted
// clockwise with their owning peer names. A key's top bits pick a
// bucket of about one vnode, and a lookup scans that bucket; membership
// changes build a new ring (the Cluster swaps it atomically).
type ring struct {
	hashes []uint64
	owners []string
	// start[b] is the first vnode at or past bucket b's lowest key, for
	// the buckets key>>shift selects; its last entry is len(hashes).
	start []int32
	shift uint
}

// maxRingBucketBits bounds the bucket table at 2^16 entries (256 KB);
// a larger ring only puts more vnodes in each bucket.
const maxRingBucketBits = 16

// buildRing places vnodes-per-peer positions for each peer. Peer names
// are sorted first and position ties broken by name, so every process
// with the same membership view builds the identical ring regardless of
// input order.
func buildRing(peers []string, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	names := append([]string(nil), peers...)
	sort.Strings(names)
	r := &ring{
		hashes: make([]uint64, 0, len(names)*vnodes),
		owners: make([]string, 0, len(names)*vnodes),
	}
	for _, name := range names {
		for v := 0; v < vnodes; v++ {
			r.hashes = append(r.hashes, fnvString(name+"#"+strconv.Itoa(v)))
			r.owners = append(r.owners, name)
		}
	}
	idx := make([]int, len(r.hashes))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.hashes[idx[a]] != r.hashes[idx[b]] {
			return r.hashes[idx[a]] < r.hashes[idx[b]]
		}
		return r.owners[idx[a]] < r.owners[idx[b]]
	})
	hashes := make([]uint64, len(idx))
	owners := make([]string, len(idx))
	for i, j := range idx {
		hashes[i] = r.hashes[j]
		owners[i] = r.owners[j]
	}
	// One bucket per vnode, rounded up to a power of two.
	bits := uint(0)
	for bits < maxRingBucketBits && 1<<bits < len(hashes) {
		bits++
	}
	out := &ring{hashes: hashes, owners: owners, start: make([]int32, 1<<bits+1), shift: 64 - bits}
	i := 0
	for b := range out.start {
		if b == 1<<bits {
			i = len(hashes)
		}
		for i < len(hashes) && hashes[i] < uint64(b)<<out.shift {
			i++
		}
		out.start[b] = int32(i)
	}
	return out
}

// owner returns the peer owning key: the first vnode clockwise from the
// key's position, wrapping at the top. An empty ring owns nothing. The
// first vnode at or past key lies in key's bucket or is the next
// bucket's first, since every vnode before the bucket sits below its
// lowest key and every one after it above key.
func (r *ring) owner(key uint64) string {
	if r == nil || len(r.hashes) == 0 {
		return ""
	}
	b := key >> r.shift
	i, end := int(r.start[b]), int(r.start[b+1])
	for i < end && r.hashes[i] < key {
		i++
	}
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// ringProbeKeys is the fixed probe-set size used to estimate how much
// ownership moved between two ring generations (cluster_ring_moves_total
// counts moved probe keys, ≈ moved fraction × 1024).
const ringProbeKeys = 1024

// movedKeys counts probe keys whose owner differs between two rings.
func movedKeys(oldR, newR *ring) int {
	if oldR == nil || newR == nil {
		return 0
	}
	moved := 0
	for i := 0; i < ringProbeKeys; i++ {
		k := fnvString("probe#" + strconv.Itoa(i))
		if oldR.owner(k) != newR.owner(k) {
			moved++
		}
	}
	return moved
}

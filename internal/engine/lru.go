package engine

import "math"

// The memo cache is keyed by a precomputed 64-bit hash of the
// (fingerprint, point) pair rather than the exact key bytes: hashing a
// point is a handful of integer mixes with zero allocation, where the
// old exact-bytes encoding built a fresh string per lookup. Hashes can
// collide, so every entry keeps its exact identity — the interned
// fingerprint ID and the point's float64 values — and a probe compares
// it bit-for-bit before reporting a hit; a collision is simply a miss
// (and, on insert, a replacement), never a wrong value.

// fnvOffset/fnvPrime are the FNV-1a constants used to seed a
// fingerprint's hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// KeySeed hashes a fingerprint string (FNV-1a) into the seed of its
// memo keys. Hash it once per stream or request and derive each point's
// key with KeyHash, rather than re-hashing the fingerprint per point.
func KeySeed(fp string) uint64 {
	h := fnvOffset
	for i := 0; i < len(fp); i++ {
		h ^= uint64(fp[i])
		h *= fnvPrime
	}
	return h
}

// KeyHash returns the engine's canonical 64-bit memo key for a point
// under a fingerprint's KeySeed: a splitmix64-style avalanche of each
// coordinate's IEEE-754 bits folded into the seed, exactly the hash the
// cache, the in-flight table and every chunk use. The cluster tier places
// keys on its consistent-hash ring with it, so cache ownership and memo
// identity can never disagree. Zero allocations.
func KeyHash(seed uint64, point []float64) uint64 {
	h := seed
	for _, v := range point {
		h ^= math.Float64bits(v)
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
	}
	// Final mix so short points still spread over the table.
	h ^= uint64(len(point))
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// pointsEqual compares two points bit-for-bit (so NaNs compare equal to
// themselves and −0 ≠ +0, exactly like the old byte encoding).
func pointsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// lruEntry is one memoized evaluation with its exact identity.
type lruEntry struct {
	hash  uint64
	fpID  uint32
	point []float64 // owned copy; never aliases caller memory
	val   float64

	prev, next *lruEntry
}

// lruCache is a hash-keyed LRU over an intrusive doubly-linked list. It
// is not goroutine-safe; the engine serializes access under its mutex.
// Warm hits perform zero allocations.
type lruCache struct {
	capacity int
	items    map[uint64]*lruEntry
	root     lruEntry // sentinel: root.next is MRU, root.prev is LRU
	n        int
}

func newLRU(capacity int) *lruCache {
	if capacity < 1 {
		capacity = 1
	}
	// Pre-size the table toward its capacity (bounded: a default-size
	// cache costs ~200 KB up front) so cold batched sweeps don't pay
	// incremental rehash growth on every insert.
	hint := capacity
	if hint > 8192 {
		hint = 8192
	}
	c := &lruCache{capacity: capacity, items: make(map[uint64]*lruEntry, hint)}
	c.root.next = &c.root
	c.root.prev = &c.root
	return c
}

func (c *lruCache) unlink(e *lruEntry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (c *lruCache) pushFront(e *lruEntry) {
	e.prev = &c.root
	e.next = c.root.next
	e.prev.next = e
	e.next.prev = e
}

// get returns the cached value when the entry at hash matches the exact
// (fpID, point) identity, marking it most-recently used. A hash hit with
// a different identity is a miss.
func (c *lruCache) get(hash uint64, fpID uint32, point []float64) (float64, bool) {
	e, ok := c.items[hash]
	if !ok || e.fpID != fpID || !pointsEqual(e.point, point) {
		return 0, false
	}
	c.unlink(e)
	c.pushFront(e)
	return e.val, true
}

// add inserts or refreshes an entry and reports whether another entry
// was evicted to make room. A hash collision with a different identity
// replaces the resident entry (the table holds one entry per hash); the
// exact-identity check in get keeps this safe.
func (c *lruCache) add(hash uint64, fpID uint32, point []float64, val float64) (evicted bool) {
	if e, ok := c.items[hash]; ok {
		if e.fpID != fpID || !pointsEqual(e.point, point) {
			e.fpID = fpID
			e.point = append(e.point[:0], point...)
		}
		e.val = val
		c.unlink(e)
		c.pushFront(e)
		return false
	}
	e := &lruEntry{hash: hash, fpID: fpID, point: append([]float64(nil), point...), val: val}
	c.items[hash] = e
	c.pushFront(e)
	c.n++
	if c.n > c.capacity {
		oldest := c.root.prev
		c.unlink(oldest)
		delete(c.items, oldest.hash)
		c.n--
		return true
	}
	return false
}

// addChunk is add for the freshly computed points of a chunk: it
// memoizes pts[i] → outs[i].Value for every i in memo. One entry slab and
// one flat point backing array are shared by every inserted entry, so
// cold batched sweeps pay two allocations per chunk instead of two per
// point (the dominant cost of cold insertion otherwise). Entries evicted
// later pin their slab until the whole chunk's generation ages out —
// bounded by one extra chunk per resident generation, which the
// chunk-size cap keeps small.
func (c *lruCache) addChunk(hashes []uint64, fpID uint32, pts [][]float64, outs []Outcome, memo []int) (evicted uint64) {
	if len(memo) == 0 {
		return 0
	}
	slab := make([]lruEntry, len(memo))
	total := 0
	for _, i := range memo {
		total += len(pts[i])
	}
	backing := make([]float64, 0, total)
	for k, i := range memo {
		h, p, v := hashes[i], pts[i], outs[i].Value
		if e, ok := c.items[h]; ok {
			// Hash resident (a collision with another identity): same
			// replacement semantics as add.
			if e.fpID != fpID || !pointsEqual(e.point, p) {
				e.fpID = fpID
				e.point = append(e.point[:0], p...)
			}
			e.val = v
			c.unlink(e)
			c.pushFront(e)
			continue
		}
		lo := len(backing)
		backing = append(backing, p...)
		e := &slab[k]
		*e = lruEntry{hash: h, fpID: fpID, point: backing[lo:len(backing):len(backing)], val: v}
		c.items[h] = e
		c.pushFront(e)
		c.n++
		if c.n > c.capacity {
			oldest := c.root.prev
			c.unlink(oldest)
			delete(c.items, oldest.hash)
			c.n--
			evicted++
		}
	}
	return evicted
}

func (c *lruCache) len() int { return c.n }

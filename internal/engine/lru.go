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

// maxCacheSize is the largest memo capacity: slots are numbered by
// int32, and slot 0 is the recency list's sentinel.
const maxCacheSize = math.MaxInt32 - 1

const (
	// slotPageBits sets the slots a page holds: 256, 12 KiB.
	slotPageBits = 8
	slotPageLen  = 1 << slotPageBits
	// arenaPage bounds an arena page, in coordinates (512 KiB).
	arenaPage = 1 << 16
)

// slotPage is a page of slots. Its fixed length lets a slot number's
// low bits index it without a bounds check.
type slotPage [slotPageLen]slot

// slot is one memoized evaluation with its exact identity. It holds no
// pointer: its point lives in the cache's arena and its recency links
// are slot numbers, so the collector never scans the cache.
type slot struct {
	hash       uint64
	val        float64
	off        uint64 // the point's arena page << 32 | offset in the page
	fpID       uint32
	dims, room uint32 // the point's length, and the arena room it holds
	prev, next int32  // toward the more and the less recently used; 0 is the sentinel
}

// lruCache is a hash-keyed LRU over slot pages: entries are linked in
// recency order by slot number, their points sit in float64 arena
// pages, and an open-addressed table indexes them by hash. It is not
// goroutine-safe; the engine serializes access under its mutex. Warm
// hits allocate nothing, and so does an insert into a full cache: it
// reuses the evicted entry's slot and arena room. Pages are allocated
// as entries arrive, never up front, and a growing cache copies none,
// so it leaves no outgrown arrays behind; only its index doubles.
type lruCache struct {
	capacity int
	n        int // entries, in slots 1 to n
	// slots are slot pages. Slot 0 is the sentinel: its next is the
	// MRU, its prev the LRU.
	slots []*slotPage
	arena [][]float64 // entry points, at their slots' offsets
	used  int         // coordinates taken of the last arena page
	taken int         // coordinates taken of all arena pages
	waste int         // of those, room no slot holds any longer
	index table[int32]
}

// newLRU builds an empty cache of capacity entries (at least 1, at most
// maxCacheSize).
func newLRU(capacity int) *lruCache {
	return &lruCache{capacity: min(max(capacity, 1), maxCacheSize), index: newTable[int32]()}
}

// at is slot s.
func (c *lruCache) at(s int32) *slot {
	return &c.slots[s>>slotPageBits][s&(slotPageLen-1)]
}

// point is slot e's identity point.
func (c *lruCache) point(e *slot) []float64 {
	if e.dims == 0 {
		return nil
	}
	at := int(uint32(e.off))
	return c.arena[e.off>>32][at : at+int(e.dims)]
}

// unlink takes slot e out of the recency list.
func (c *lruCache) unlink(e *slot) {
	c.at(e.prev).next = e.next
	c.at(e.next).prev = e.prev
}

// pushFront makes slot s, at e, the most recently used.
func (c *lruCache) pushFront(s int32, e *slot) {
	root := c.at(0)
	mru := root.next
	e.prev, e.next = 0, mru
	c.at(mru).prev = s
	root.next = s
}

// get returns the cached value when the entry at hash matches the exact
// (fpID, point) identity, marking it most-recently used. A hash hit with
// a different identity is a miss.
func (c *lruCache) get(hash uint64, fpID uint32, point []float64) (float64, bool) {
	s := c.index.get(hash)
	if s == 0 {
		return 0, false
	}
	e := c.at(s)
	if e.fpID != fpID || !pointsEqual(c.point(e), point) {
		return 0, false
	}
	c.unlink(e)
	c.pushFront(s, e)
	return e.val, true
}

// add inserts or refreshes an entry and reports whether another entry
// was evicted to make room. A hash collision with a different identity
// replaces the resident entry (the table holds one entry per hash); the
// exact-identity check in get keeps this safe.
func (c *lruCache) add(hash uint64, fpID uint32, point []float64, val float64) (evicted bool) {
	s := c.index.get(hash)
	var e *slot
	if s != 0 {
		e = c.at(s)
		if e.fpID != fpID || !pointsEqual(c.point(e), point) {
			e.fpID = fpID
			c.store(e, point)
		}
		c.unlink(e)
	} else {
		if c.n == c.capacity {
			// Full: the least recently used entry gives up its slot.
			s = c.at(0).prev
			e = c.at(s)
			c.unlink(e)
			c.index.del(e.hash)
			evicted = true
		} else {
			s = c.newSlot()
			e = c.at(s)
		}
		e.hash, e.fpID = hash, fpID
		c.store(e, point)
		c.index.put(hash, s)
	}
	e.val = val
	c.pushFront(s, e)
	return evicted
}

// newSlot takes the next unused slot, adding a page when the last is
// full. The first page holds the sentinel.
func (c *lruCache) newSlot() int32 {
	s := c.n + 1
	if s>>slotPageBits == len(c.slots) {
		c.slots = append(c.slots, new(slotPage))
	}
	c.n = s
	return int32(s)
}

// store makes point slot e's identity point: in the slot's own arena
// room when it fits, else in fresh room.
func (c *lruCache) store(e *slot, point []float64) {
	d := len(point)
	if d > int(e.room) {
		c.waste += int(e.room)
		e.dims, e.room = 0, 0 // nothing of its old room survives a compaction
		e.off, e.room = c.alloc(d), uint32(d)
	}
	e.dims = uint32(d)
	copy(c.point(e), point)
}

// alloc returns the arena offset of d fresh coordinates, adding a page
// when the last is full or, when more of the arena is room no slot
// holds than room one does, compacting it first.
func (c *lruCache) alloc(d int) uint64 {
	if len(c.arena) == 0 || c.used+d > len(c.arena[len(c.arena)-1]) {
		if 2*c.waste > c.taken {
			c.compact()
		}
		if len(c.arena) == 0 || c.used+d > len(c.arena[len(c.arena)-1]) {
			c.arena = append(c.arena, make([]float64, max(d, min(arenaPage, c.capacity*d))))
			c.used = 0
		}
	}
	off := uint64(len(c.arena)-1)<<32 | uint64(c.used)
	c.used += d
	c.taken += d
	return off
}

// compact copies every slot's room into fresh arena pages, dropping the
// room no slot holds.
func (c *lruCache) compact() {
	old := c.arena
	c.arena, c.used, c.taken, c.waste = nil, 0, 0, 0
	for s := 1; s <= c.n; s++ {
		e := c.at(int32(s))
		if e.room == 0 {
			continue
		}
		at := int(uint32(e.off))
		from := old[e.off>>32][at : at+int(e.room)]
		e.off = c.alloc(int(e.room))
		at = int(uint32(e.off))
		copy(c.arena[e.off>>32][at:at+int(e.room)], from)
	}
}

// walk calls f for every entry, from the least to the most recently
// used.
func (c *lruCache) walk(f func(s int32, e *slot, point []float64)) {
	if c.n == 0 {
		return
	}
	for s := c.at(0).prev; s != 0; s = c.at(s).prev {
		e := c.at(s)
		f(s, e, c.point(e))
	}
}

func (c *lruCache) len() int { return c.n }

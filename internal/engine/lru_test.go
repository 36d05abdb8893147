package engine

import (
	"container/list"
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// refEntry and refLRU restate the memo cache's contract over
// container/list and a Go map: one entry per hash, a hit only on the
// exact (fpID, point bits) identity, a colliding add replacing the
// resident identity in place, and the least recently used entry evicted
// past capacity.
type refEntry struct {
	hash  uint64
	fpID  uint32
	point []float64
	val   float64
}

type refLRU struct {
	capacity int
	order    *list.List // front: most recently used
	byHash   map[uint64]*list.Element
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{capacity: capacity, order: list.New(), byHash: make(map[uint64]*list.Element)}
}

func sameBits(a, b []float64) bool {
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

func (r *refLRU) get(hash uint64, fpID uint32, point []float64) (float64, bool) {
	el, ok := r.byHash[hash]
	if !ok {
		return 0, false
	}
	e := el.Value.(*refEntry)
	if e.fpID != fpID || !sameBits(e.point, point) {
		return 0, false
	}
	r.order.MoveToFront(el)
	return e.val, true
}

func (r *refLRU) add(hash uint64, fpID uint32, point []float64, val float64) bool {
	if el, ok := r.byHash[hash]; ok {
		e := el.Value.(*refEntry)
		e.fpID, e.point, e.val = fpID, append([]float64(nil), point...), val
		r.order.MoveToFront(el)
		return false
	}
	r.byHash[hash] = r.order.PushFront(&refEntry{hash: hash, fpID: fpID, point: append([]float64(nil), point...), val: val})
	if r.order.Len() <= r.capacity {
		return false
	}
	oldest := r.order.Back()
	r.order.Remove(oldest)
	delete(r.byHash, oldest.Value.(*refEntry).hash)
	return true
}

// fuzzPoints are the identities the fuzz ops draw from: lengths 0 to
// 9, −0 beside +0, two NaN payloads.
var fuzzPoints = [][]float64{
	{},
	{0},
	{math.Copysign(0, -1)},
	{math.NaN()},
	{math.Float64frombits(0x7ff8000000000001)},
	{1, 2},
	{1, 2, 3},
	{math.Copysign(0, -1), math.NaN(), 5},
	{math.Inf(1), math.Inf(-1), 0, 1, 2, 3, 4, 5, 6},
	{4.725, 2.025, 4.275, 3, 16, 256},
}

// FuzzMemoCacheMatchesLRU drives the memo cache and the reference LRU
// with one op sequence and requires the same hits, values, eviction
// flags and length after every op, and the same recency order at the
// end. Each op is four bytes: kind (bit 0: add or get; bit 1: a NaN
// value), two bytes of hash selector and one of identity (fingerprint 1
// or 2 times a point of fuzzPoints). Hashes are drawn from about twice
// the capacity's worth, so a full cache evicts, and identities
// independently of hashes, so different identities collide on a full
// hash.
func FuzzMemoCacheMatchesLRU(f *testing.F) {
	ops := func(quads ...[4]byte) []byte {
		var b []byte
		for _, q := range quads {
			b = append(b, q[:]...)
		}
		return b
	}
	// Capacity 1: every new hash evicts the one entry.
	f.Add(uint16(0), ops([4]byte{1, 0, 0, 5}, [4]byte{0, 0, 0, 5}, [4]byte{1, 1, 0, 6}, [4]byte{0, 0, 0, 5}, [4]byte{0, 1, 0, 6}))
	// Capacity 2: a get refreshes the older entry, so the other goes.
	f.Add(uint16(1), ops([4]byte{1, 0, 0, 1}, [4]byte{1, 1, 0, 2}, [4]byte{0, 0, 0, 1}, [4]byte{1, 2, 0, 3}, [4]byte{0, 1, 0, 2}, [4]byte{0, 0, 0, 1}))
	// A collision replacement: one hash, identities of other lengths,
	// fingerprints, −0 and NaN payloads, each replacing the last.
	f.Add(uint16(7), ops([4]byte{1, 3, 0, 9}, [4]byte{3, 3, 0, 8}, [4]byte{0, 3, 0, 9}, [4]byte{1, 3, 0, 12}, [4]byte{1, 3, 0, 4},
		[4]byte{0, 3, 0, 3}, [4]byte{0, 3, 0, 4}, [4]byte{1, 3, 0, 2}, [4]byte{0, 3, 0, 1}, [4]byte{1, 4, 0, 19}, [4]byte{0, 3, 0, 2}))
	// Mixed lengths churning a full cache of 41, which grows its index
	// and compacts its arena.
	var churn [][4]byte
	for i := 0; i < 200; i++ {
		churn = append(churn, [4]byte{1, byte(i), byte(i >> 8), byte(i % 20)})
	}
	f.Add(uint16(40), ops(churn...))

	f.Fuzz(func(t *testing.T, capSel uint16, ops []byte) {
		capacity := 1 + int(capSel)%3000
		c, ref := newLRU(capacity), newRefLRU(capacity)
		for step := 0; len(ops) >= 4; step++ {
			kind, sel, id := ops[0], binary.LittleEndian.Uint16(ops[1:]), ops[3]
			ops = ops[4:]
			// Spread the selector over all 64 bits; 0 is a valid hash too.
			hash := uint64(int(sel)%(2*capacity+2)) * 0x9e3779b97f4a7c15
			fpID := uint32(1 + id/uint8(len(fuzzPoints))%2)
			point := fuzzPoints[int(id)%len(fuzzPoints)]
			if kind&1 == 1 {
				val := float64(step)
				if kind&2 != 0 {
					val = math.Float64frombits(0x7ff8000000000000 | uint64(step))
				}
				if got, want := c.add(hash, fpID, point, val), ref.add(hash, fpID, point, val); got != want {
					t.Fatalf("op %d: add(%016x, %d, %v) evicted = %v, want %v", step, hash, fpID, point, got, want)
				}
			} else {
				v, ok := c.get(hash, fpID, point)
				wv, wok := ref.get(hash, fpID, point)
				if ok != wok || math.Float64bits(v) != math.Float64bits(wv) {
					t.Fatalf("op %d: get(%016x, %d, %v) = %v, %v; want %v, %v", step, hash, fpID, point, v, ok, wv, wok)
				}
			}
			if c.len() != ref.order.Len() {
				t.Fatalf("op %d: len = %d, want %d", step, c.len(), ref.order.Len())
			}
		}
		el := ref.order.Back()
		c.walk(func(_ int32, s *slot, point []float64) {
			if el == nil {
				t.Fatalf("recency walk has entry %016x beyond the reference's %d", s.hash, ref.order.Len())
			}
			w := el.Value.(*refEntry)
			if s.hash != w.hash || s.fpID != w.fpID || !sameBits(point, w.point) || math.Float64bits(s.val) != math.Float64bits(w.val) {
				t.Fatalf("recency walk at %016x/%d %v = %v, want %016x/%d %v = %v", s.hash, s.fpID, point, s.val, w.hash, w.fpID, w.point, w.val)
			}
			el = el.Prev()
		})
		if el != nil {
			t.Fatalf("recency walk ended before the reference's %d entries", ref.order.Len())
		}
	})
}

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := range t.NumField() {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestMemoCacheStorageHoldsNoPointers keeps the cache's per-entry
// storage out of the collector's scan: a pointer field in a slot or an
// index cell would make every GC cycle mark the whole cache again.
func TestMemoCacheStorageHoldsNoPointers(t *testing.T) {
	c := newLRU(8)
	for _, typ := range []reflect.Type{
		reflect.TypeOf(slot{}),
		reflect.TypeOf(c.index.cells).Elem(),
	} {
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
	}
}

// splitmix is a bijective mixer for distinct test hashes.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// TestFullCacheAddAllocatesNothing: an insert into a full cache takes
// the evicted entry's slot and arena room, so it allocates nothing.
func TestFullCacheAddAllocatesNothing(t *testing.T) {
	const capacity = 1000
	c := newLRU(capacity)
	p := []float64{0, 2.025, 4.275, 3, 16, 256}
	var i uint64
	for ; i < capacity; i++ {
		p[0] = float64(i)
		c.add(splitmix(i), 1, p, 1)
	}
	allocs := testing.AllocsPerRun(2000, func() {
		p[0] = float64(i)
		if !c.add(splitmix(i), 1, p, 2) {
			t.Fatalf("add %d into a full cache evicted nothing", i)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("add into a full cache allocates %v times, want 0", allocs)
	}
}

// longestProbe is the most cells a lookup of a present key visits.
func longestProbe(t *table[int32]) int {
	longest := 0
	for i, c := range t.cells {
		if c.val != 0 {
			longest = max(longest, int((uint64(i)-t.home(c.key))&t.mask)+1)
		}
	}
	return longest
}

// TestMemoIndexSpreadsClusteredKeys inserts 4,096 keys that share their
// top 20 bits (one arc of the cluster ring, which buckets keys by their
// top bits) and 4,096 that share their low 20 bits, the rest of each
// drawn at random as KeyHash draws it, into caches with fresh seeds, and
// bounds the longest probe. A home read straight off either end of the
// key would put all 4,096 in one run; at half load, random homes keep
// the longest under about 60 cells.
func TestMemoIndexSpreadsClusteredKeys(t *testing.T) {
	const n, bound = 4096, 100
	for name, key := range map[string]func(i uint64) uint64{
		"shared top 20 bits": func(i uint64) uint64 { return 0xabcde<<44 | splitmix(i)>>20 },
		"shared low 20 bits": func(i uint64) uint64 { return splitmix(i)<<20 | 0xabcde },
	} {
		for trial := 0; trial < 8; trial++ {
			c := newLRU(n)
			for i := uint64(0); i < n; i++ {
				c.add(key(i), 1, []float64{float64(i)}, 0)
			}
			if got := longestProbe(&c.index); got > bound {
				t.Errorf("%s: longest probe %d cells (seed %#x), want at most %d", name, got, c.index.seed, bound)
			}
		}
	}
}

// TestHugeCacheSizeAllocatesLazily: the cache's arrays grow with its
// entries, so a capacity beyond the int32 slot range costs nothing up
// front and is clamped to that range.
func TestHugeCacheSizeAllocatesLazily(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := New(Options{Workers: 1, CacheSize: 1 << 40})
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Fatalf("New with CacheSize 2^40 allocated %d bytes, want under 1 MiB", d)
	}
	if got := e.CacheCap(); got != maxCacheSize {
		t.Fatalf("CacheCap = %d, want %d", got, maxCacheSize)
	}
	ev := snapEval{fp: "huge"}
	for i := 0; i < 3; i++ {
		if _, err := e.Evaluate(context.Background(), ev, []float64{float64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if got, hits := e.CacheLen(), e.Stats().CacheHits; got != 2 || hits != 1 {
		t.Fatalf("CacheLen = %d with %d hits, want 2 with 1", got, hits)
	}
}

// TestTableMatchesMap runs a seeded mix of puts, gets, deletes and
// resets on the table and on a Go map, keys 0 and colliding homes
// included, and requires the same contents throughout.
func TestTableMatchesMap(t *testing.T) {
	tab, want := newTable[int32](), make(map[uint64]int32)
	rng := splitmix(1)
	for step := 0; step < 200000; step++ {
		rng = splitmix(rng)
		key := rng >> 52 // 4,096 keys: dense runs, key 0 among them
		switch op := rng % 16; {
		case op < 7:
			v := int32(step%1000 + 1)
			tab.put(key, v)
			want[key] = v
		case op < 14:
			tab.del(key)
			delete(want, key)
		case op == 14 && rng%977 == 0:
			tab.reset()
			clear(want)
		}
		if got := tab.get(key); got != want[key] {
			t.Fatalf("step %d: get(%d) = %d, want %d", step, key, got, want[key])
		}
		if tab.len() != len(want) {
			t.Fatalf("step %d: len = %d, want %d", step, tab.len(), len(want))
		}
	}
	for key, v := range want {
		if got := tab.get(key); got != v {
			t.Fatalf("get(%d) = %d, want %d", key, got, v)
		}
	}
}

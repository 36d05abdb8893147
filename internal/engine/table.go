package engine

import (
	"math/bits"
	"math/rand/v2"
)

// table is an open-addressed hash table from a 64-bit KeyHash to a
// value: linear probing, at most half full, and backward-shift deletion,
// so a removal leaves no tombstone behind. The zero V marks an empty
// cell, so a stored value is never the zero V. It indexes the memo
// cache's slots (V = int32, a slot number) and holds the in-flight
// registrations (V = *call). With a pointer-free V the collector never
// scans its cells.
//
// A cell keeps key × seed, for a random odd seed drawn per table (odd,
// so the product is a bijection and equal products mean equal keys),
// and the product's top bits are the key's home: multiply-shift
// hashing, under which two distinct keys share a home with probability
// at most 2/cells over the seed. A home never comes straight from the
// key's bits: the cluster ring buckets keys by their top bits, so one
// peer's keys share them, and KeyHash is public and deterministic, so
// without the seed a client could craft points that pile into one probe
// run under the engine lock. The seed moves where a key sits and
// nothing else: no value, count or snapshot byte depends on it.
type table[V comparable] struct {
	cells []cell[V]
	mask  uint64 // len(cells) − 1
	shift uint   // 64 − log2(len(cells))
	n     int
	seed  uint64
}

type cell[V comparable] struct {
	key uint64 // key × seed
	val V
}

// minTableCells is a table's size on its first insert.
const minTableCells = 16

func newTable[V comparable]() table[V] {
	//lint:allow detguard the seed places keys in the table's cells only; no value, count or snapshot byte depends on it
	return table[V]{seed: rand.Uint64() | 1}
}

// home is the first probe position of a stored key × seed.
func (t *table[V]) home(k uint64) uint64 {
	return k >> t.shift
}

// get returns the value stored under key, or the zero V.
func (t *table[V]) get(key uint64) V {
	var zero V
	if t.n == 0 {
		return zero
	}
	key *= t.seed
	for i := t.home(key); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if c.val == zero || c.key == key {
			return c.val
		}
	}
}

// put stores val (never the zero V) under key, replacing what key held.
func (t *table[V]) put(key uint64, val V) {
	if 2*(t.n+1) > len(t.cells) {
		t.grow()
	}
	var zero V
	key *= t.seed
	for i := t.home(key); ; i = (i + 1) & t.mask {
		c := &t.cells[i]
		if c.val == zero {
			c.key, c.val = key, val
			t.n++
			return
		}
		if c.key == key {
			c.val = val
			return
		}
	}
}

// del removes key, if present, shifting the rest of its probe run back
// over the hole.
func (t *table[V]) del(key uint64) {
	var zero V
	if t.n == 0 {
		return
	}
	key *= t.seed
	i := t.home(key)
	for {
		c := &t.cells[i]
		if c.val == zero {
			return
		}
		if c.key == key {
			break
		}
		i = (i + 1) & t.mask
	}
	t.n--
	for j := i; ; {
		j = (j + 1) & t.mask
		c := t.cells[j]
		if c.val == zero {
			break
		}
		// c fills the hole unless its home lies cyclically in (i, j].
		if (j-t.home(c.key))&t.mask >= (j-i)&t.mask {
			t.cells[i] = c
			i = j
		}
	}
	t.cells[i] = cell[V]{}
}

// reset empties the table, keeping its cells.
func (t *table[V]) reset() {
	clear(t.cells)
	t.n = 0
}

func (t *table[V]) len() int { return t.n }

// grow doubles the table and re-places every key.
func (t *table[V]) grow() {
	old := t.cells
	t.cells = make([]cell[V], max(2*len(old), minTableCells))
	t.mask = uint64(len(t.cells) - 1)
	t.shift = uint(64 - bits.TrailingZeros(uint(len(t.cells))))
	var zero V
	for _, c := range old {
		if c.val == zero {
			continue
		}
		i := t.home(c.key)
		for t.cells[i].val != zero {
			i = (i + 1) & t.mask
		}
		t.cells[i] = c
	}
}

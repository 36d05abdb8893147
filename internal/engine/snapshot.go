package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"

	"repro/internal/robust"
)

// Cache snapshots persist the memo cache across process restarts so a
// clustered shard comes back warm instead of re-evaluating its keyset.
// The format is a single versioned binary blob (little-endian):
//
//	magic      [8]byte  "C2BSNAP" + version byte
//	fpCount    uint32   interned fingerprint strings, in first-use order
//	fpCount ×  { len uint32, bytes }
//	entries    uint32   cache entries, LRU → MRU (recency survives restore)
//	entries ×  { fpIdx uint32, dims uint32, dims × uint64 point bits, uint64 value bits }
//	trailer    uint64   FNV-1a over every preceding byte
//
// Points and values are stored as raw IEEE-754 bits, so a restored entry
// is bit-identical to the one saved (NaN payloads and −0 included) and a
// save → load → save round trip reproduces the file byte for byte. The
// write path is robust.WriteFileDurable (unique temp file, fsync,
// rename, directory fsync), shared with checkpoints and job records. The load path verifies the checksum
// and fully parses the blob before touching the cache, so a truncated or
// corrupt file is a clean error, never a partial restore.

// snapshotMagic identifies a version-1 snapshot file.
var snapshotMagic = [8]byte{'C', '2', 'B', 'S', 'N', 'A', 'P', 1}

// snapshotEntry is one parsed cache entry awaiting installation; fp
// indexes the snapshot's fingerprint table.
type snapshotEntry struct {
	fp    uint32
	point []float64
	val   float64
}

// SaveSnapshot writes the memo cache durably and atomically to path,
// returning the number of entries saved. Saving with caching disabled is
// an error. The engine stays fully serving while the snapshot is
// encoded; the cache mutex is held only for the in-memory walk.
func (e *Engine) SaveSnapshot(path string) (int, error) {
	data, n, err := e.encodeSnapshot()
	if err != nil {
		return 0, err
	}
	if err := robust.WriteFileDurable(path, data); err != nil {
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	return n, nil
}

// encodeSnapshot renders the cache as the snapshot blob under the
// engine mutex. The fingerprint table is built from the entries in walk
// order (not the intern map), so the encoding is deterministic.
func (e *Engine) encodeSnapshot() ([]byte, int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return nil, 0, fmt.Errorf("engine: snapshot: caching is disabled")
	}
	fpByID := make(map[uint32]string, len(e.fps))
	for fp, id := range e.fps {
		fpByID[id] = fp
	}
	var fpOrder []string
	fpIdx := make(map[uint32]uint32)
	e.cache.walk(func(_ int32, s *slot, _ []float64) {
		if _, ok := fpIdx[s.fpID]; !ok {
			fpIdx[s.fpID] = uint32(len(fpOrder))
			fpOrder = append(fpOrder, fpByID[s.fpID])
		}
	})
	n := e.cache.len()
	buf := make([]byte, 0, 16+n*64)
	buf = append(buf, snapshotMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fpOrder)))
	for _, fp := range fpOrder {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(fp)))
		buf = append(buf, fp...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	e.cache.walk(func(_ int32, s *slot, point []float64) {
		buf = binary.LittleEndian.AppendUint32(buf, fpIdx[s.fpID])
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(point)))
		for _, v := range point {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s.val))
	})
	buf = binary.LittleEndian.AppendUint64(buf, fnvSum(buf))
	return buf, n, nil
}

// LoadSnapshot restores a snapshot into the cache, returning the number
// of entries installed. The blob is checksummed and fully parsed before
// the first insert: a truncated, corrupt or version-mismatched file
// leaves the cache exactly as it was. Entries are installed LRU → MRU
// with freshly interned fingerprints and recomputed hashes, so a
// restored cache behaves identically to one that was never saved
// (snapshots from larger caches simply evict from the cold end). Each
// fingerprint is interned and seeded once, at its first entry.
func (e *Engine) LoadSnapshot(path string) (int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	fps, entries, err := parseSnapshot(data)
	if err != nil {
		return 0, fmt.Errorf("engine: snapshot %q: %w", path, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cache == nil {
		return 0, fmt.Errorf("engine: snapshot: caching is disabled")
	}
	ids := make([]uint32, len(fps)) // 0: not interned yet (IDs start at 1)
	seeds := make([]uint64, len(fps))
	for _, se := range entries {
		if ids[se.fp] == 0 {
			ids[se.fp] = e.internLocked(fps[se.fp])
			seeds[se.fp] = KeySeed(fps[se.fp])
		}
		e.cache.add(KeyHash(seeds[se.fp], se.point), ids[se.fp], se.point, se.val)
	}
	return len(entries), nil
}

// parseSnapshot validates and decodes a snapshot blob all-or-nothing
// into its fingerprint table and its entries.
func parseSnapshot(data []byte) ([]string, []snapshotEntry, error) {
	if len(data) < len(snapshotMagic)+8 {
		return nil, nil, fmt.Errorf("truncated (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != snapshotMagic {
		return nil, nil, fmt.Errorf("bad magic or unsupported version")
	}
	payload, trailer := data[:len(data)-8], binary.LittleEndian.Uint64(data[len(data)-8:])
	if sum := fnvSum(payload); sum != trailer {
		return nil, nil, fmt.Errorf("checksum mismatch (file %016x, computed %016x)", trailer, sum)
	}
	r := snapReader{buf: payload[8:]}
	// Header counts are checked against the bytes left before they size
	// an allocation: a fingerprint takes at least its 4-byte length and
	// an entry at least 16 bytes (index, dims, value), so a forged count
	// fails here instead of reserving gigabytes.
	fpCount := r.u32()
	if r.err == nil && int(fpCount) > len(r.buf)/4 {
		return nil, nil, fmt.Errorf("header claims %d fingerprints beyond the blob", fpCount)
	}
	fps := make([]string, 0, fpCount)
	for i := uint32(0); i < fpCount; i++ {
		fps = append(fps, string(r.bytes(int(r.u32()))))
	}
	entryCount := r.u32()
	if r.err == nil && int(entryCount) > len(r.buf)/16 {
		return nil, nil, fmt.Errorf("header claims %d entries beyond the blob", entryCount)
	}
	entries := make([]snapshotEntry, 0, entryCount)
	for i := uint32(0); i < entryCount; i++ {
		fpIdx := r.u32()
		if r.err == nil && fpIdx >= uint32(len(fps)) {
			return nil, nil, fmt.Errorf("entry %d references fingerprint %d of %d", i, fpIdx, len(fps))
		}
		dims := r.u32()
		if r.err == nil && int(dims) > len(r.buf)/8 {
			return nil, nil, fmt.Errorf("entry %d claims %d dims beyond the blob", i, dims)
		}
		point := make([]float64, 0, dims)
		for d := uint32(0); d < dims; d++ {
			point = append(point, math.Float64frombits(r.u64()))
		}
		val := math.Float64frombits(r.u64())
		if r.err != nil {
			return nil, nil, r.err
		}
		entries = append(entries, snapshotEntry{fp: fpIdx, point: point, val: val})
	}
	if r.err != nil {
		return nil, nil, r.err
	}
	if len(r.buf) != 0 {
		return nil, nil, fmt.Errorf("%d trailing bytes after the last entry", len(r.buf))
	}
	return fps, entries, nil
}

// snapReader is a cursor over the snapshot payload with a sticky
// out-of-bounds error, so the parser stays straight-line.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.buf) {
		r.err = fmt.Errorf("truncated payload (want %d bytes, have %d)", n, len(r.buf))
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

func (r *snapReader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// fnvSum is FNV-1a over a byte slice (the snapshot trailer checksum).
func fnvSum(data []byte) uint64 {
	h := fnvOffset
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

package dse

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"sort"
	"strconv"

	"repro/internal/robust"
)

// checkpointVersion guards the on-disk format; bump on incompatible
// changes.
const checkpointVersion = 1

// Checkpoint is the JSON sweep-state snapshot: the space's signature plus
// the completed (index, value) pairs, sorted by index. Values are encoded
// as strings because JSON cannot represent NaN or ±Inf (infeasible
// configurations legitimately score +Inf); strconv's shortest round-trip
// format keeps resumed values bit-identical to freshly evaluated ones.
type Checkpoint struct {
	Version   int       `json:"version"`
	Signature string    `json:"signature"`
	Indices   []int     `json:"indices"`
	Values    []float64 `json:"-"`
	RawValues []string  `json:"values"`
}

// Signature fingerprints the space (dimension names and exact candidate
// values) so a checkpoint is never resumed against a different space.
func (s Space) Signature() string {
	h := fnv.New64a()
	for _, p := range s.Params {
		h.Write([]byte(p.Name))
		h.Write([]byte{0})
		for _, v := range p.Values {
			var b [8]byte
			bits := math.Float64bits(v)
			for i := 0; i < 8; i++ {
				b[i] = byte(bits >> (8 * i))
			}
			h.Write(b[:])
		}
		h.Write([]byte{0xff})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// SaveCheckpoint writes the completed entries of a sweep durably and
// atomically (robust.WriteFileDurable): neither a kill mid-write nor a
// power loss right after the rename can leave a corrupt or vanished
// checkpoint, and concurrent savers never publish each other's partial
// bytes.
func SaveCheckpoint(path string, s Space, values []float64, completed []int) error {
	ck := Checkpoint{Version: checkpointVersion, Signature: s.Signature()}
	ck.Indices = append([]int(nil), completed...)
	sort.Ints(ck.Indices)
	ck.RawValues = make([]string, len(ck.Indices))
	for i, idx := range ck.Indices {
		if idx < 0 || idx >= len(values) {
			return fmt.Errorf("dse: checkpoint index %d outside space of %d", idx, len(values))
		}
		ck.RawValues[i] = strconv.FormatFloat(values[idx], 'g', -1, 64)
	}
	data, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	return robust.WriteFileDurable(path, append(data, '\n'))
}

// LoadCheckpoint reads and validates a checkpoint file. The caller is
// responsible for comparing Signature against the target space.
func LoadCheckpoint(path string) (Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Checkpoint{}, err
	}
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return Checkpoint{}, fmt.Errorf("dse: checkpoint %q: %w", path, err)
	}
	if ck.Version != checkpointVersion {
		return Checkpoint{}, fmt.Errorf("dse: checkpoint %q has version %d, want %d", path, ck.Version, checkpointVersion)
	}
	if len(ck.RawValues) != len(ck.Indices) {
		return Checkpoint{}, fmt.Errorf("dse: checkpoint %q has %d values for %d indices", path, len(ck.RawValues), len(ck.Indices))
	}
	ck.Values = make([]float64, len(ck.RawValues))
	for i, raw := range ck.RawValues {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return Checkpoint{}, fmt.Errorf("dse: checkpoint %q value %d: %w", path, i, err)
		}
		ck.Values[i] = v
	}
	return ck, nil
}

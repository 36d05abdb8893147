package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// jsonFloat is a float64 that survives JSON encoding for the full IEEE
// range: finite values render as plain numbers, while NaN and ±Inf —
// legitimate evaluation results (an infeasible configuration scores
// +Inf) that encoding/json rejects — render as quoted strings in
// strconv's shortest round-trip format, mirroring the checkpoint file
// convention of internal/dse.
type jsonFloat float64

// MarshalJSON implements json.Marshaler.
func (f jsonFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return strconv.AppendQuote(nil, strconv.FormatFloat(v, 'g', -1, 64)), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON implements json.Unmarshaler, accepting both encodings.
func (f *jsonFloat) UnmarshalJSON(data []byte) error {
	s := string(data)
	if len(s) >= 2 && s[0] == '"' {
		unquoted, err := strconv.Unquote(s)
		if err != nil {
			return fmt.Errorf("server: float string %s: %w", s, err)
		}
		s = unquoted
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return fmt.Errorf("server: float %s: %w", s, err)
	}
	*f = jsonFloat(v)
	return nil
}

// valueList is a sweep result's value list. It encodes the whole list
// in one pass instead of one reflective jsonFloat call per element, to
// exactly the bytes encoding/json writes for []jsonFloat
// (FuzzValueListMatchesElementwise holds it); it decodes as []jsonFloat
// does.
type valueList []jsonFloat

// valuesOf renders dense values for the wire.
func valuesOf(values []float64) valueList {
	out := make(valueList, len(values))
	for i, v := range values {
		out[i] = jsonFloat(v)
	}
	return out
}

// MarshalJSON implements json.Marshaler with jsonFloat's element
// encoding.
func (l valueList) MarshalJSON() ([]byte, error) {
	if l == nil {
		return []byte("null"), nil
	}
	// 25 bytes hold the longest shortest-round-trip float64 and its comma.
	buf := make([]byte, 0, 2+25*len(l))
	buf = append(buf, '[')
	for i, f := range l {
		if i > 0 {
			buf = append(buf, ',')
		}
		v := float64(f)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			buf = append(buf, '"')
			buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
			buf = append(buf, '"')
			continue
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, ']'), nil
}

// ndjsonWriter emits newline-delimited JSON frames, flushing after every
// frame so clients observe streamed results and progress as they happen
// rather than at response end.
type ndjsonWriter struct {
	w     http.ResponseWriter
	flush http.Flusher // nil when the ResponseWriter cannot flush
	enc   *json.Encoder
	err   error
}

// newNDJSONWriter prepares the response for streaming: the NDJSON
// content type and an immediate header write, so admission and
// validation failures must be rendered before this call.
func newNDJSONWriter(w http.ResponseWriter) *ndjsonWriter {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusOK)
	flush, _ := w.(http.Flusher)
	return &ndjsonWriter{w: w, flush: flush, enc: json.NewEncoder(w)}
}

// Emit writes one frame. After the first failed write (client gone) all
// further frames are dropped.
func (n *ndjsonWriter) Emit(frame interface{}) {
	if n.err != nil {
		return
	}
	if err := n.enc.Encode(frame); err != nil {
		n.err = err
		return
	}
	if n.flush != nil {
		n.flush.Flush()
	}
}

// orderedEmitter re-sequences frames produced in completion order into
// submission order: Add buffers out-of-order frames and emits every
// contiguous run starting at the next expected index.
type orderedEmitter struct {
	out     *ndjsonWriter
	next    int
	pending map[int]interface{}
}

func newOrderedEmitter(out *ndjsonWriter) *orderedEmitter {
	return &orderedEmitter{out: out, pending: make(map[int]interface{})}
}

// Add accepts the frame for submission index i and flushes the longest
// now-contiguous prefix.
func (o *orderedEmitter) Add(i int, frame interface{}) {
	o.pending[i] = frame
	for {
		f, ok := o.pending[o.next]
		if !ok {
			return
		}
		delete(o.pending, o.next)
		o.next++
		o.out.Emit(f)
	}
}

package server

import (
	"bytes"
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

// valueList is a sweep result's value list. It encodes and decodes the
// whole list in one pass instead of one reflective jsonFloat call per
// element: the bytes are exactly those encoding/json writes for
// []jsonFloat, and it accepts exactly the documents []jsonFloat accepts,
// with the same bits (FuzzValueListMatchesElementwise holds both).
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

// UnmarshalJSON implements json.Unmarshaler. null leaves a nil list, as
// it does for a slice; every element must be what jsonFloat.UnmarshalJSON
// accepts: a number, or a string holding one (NaN and ±Inf included).
func (l *valueList) UnmarshalJSON(data []byte) error {
	start, end := skipJSONSpace(data, 0), len(data)
	for end > start && isJSONSpace(data[end-1]) {
		end--
	}
	data = data[start:end]
	if string(data) == "null" {
		*l = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return fmt.Errorf("server: value list %.32q is not an array", data)
	}
	body := data[1 : len(data)-1]
	// Commas bound the element count (one inside a string only overcounts).
	out := make(valueList, 0, bytes.Count(body, []byte{','})+1)
	i := skipJSONSpace(body, 0)
	for i < len(body) {
		end, err := valueEnd(body, i)
		if err != nil {
			return err
		}
		v, err := parseJSONFloat(body[i:end])
		if err != nil {
			return err
		}
		out = append(out, jsonFloat(v))
		i = skipJSONSpace(body, end)
		if i == len(body) {
			break
		}
		if body[i] != ',' {
			return fmt.Errorf("server: value list: %q after element %d", body[i], len(out)-1)
		}
		if i = skipJSONSpace(body, i+1); i == len(body) {
			return fmt.Errorf("server: value list ends in a comma")
		}
	}
	*l = out
	return nil
}

// isJSONSpace reports whether c is JSON's insignificant whitespace.
func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func skipJSONSpace(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}

// valueEnd returns the end of the list element starting at b[i]: a
// string through its closing quote, or a number through its last byte.
// Anything else (true, false, null, an object or an array) is no float.
func valueEnd(b []byte, i int) (int, error) {
	switch c := b[i]; {
	case c == '"':
		for j := i + 1; j < len(b); j++ {
			switch b[j] {
			case '\\':
				j++
			case '"':
				return j + 1, nil
			}
		}
		return 0, fmt.Errorf("server: value list: unterminated string")
	case c == '-' || '0' <= c && c <= '9':
		j := i + 1
		for j < len(b) && b[j] != ',' && !isJSONSpace(b[j]) {
			j++
		}
		return j, nil
	default:
		return 0, fmt.Errorf("server: value list: element %.16q is not a float", b[i:])
	}
}

// parseJSONFloat reads one list element as jsonFloat.UnmarshalJSON does:
// a quoted element is unquoted first (strconv.Unquote only when it holds
// an escape; without one the bytes between the quotes are the string).
func parseJSONFloat(tok []byte) (float64, error) {
	s := tok
	if tok[0] == '"' {
		s = tok[1 : len(tok)-1]
		if bytes.IndexByte(s, '\\') >= 0 {
			unquoted, err := strconv.Unquote(string(tok))
			if err != nil {
				return 0, fmt.Errorf("server: float string %s: %w", tok, err)
			}
			s = []byte(unquoted)
		}
	}
	v, err := strconv.ParseFloat(string(s), 64)
	if err != nil {
		return 0, fmt.Errorf("server: float %s: %w", s, err)
	}
	return v, nil
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
// further frames are dropped; Err reports the sticky failure.
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

// Err returns the first write failure, or nil.
func (n *ndjsonWriter) Err() error { return n.err }

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

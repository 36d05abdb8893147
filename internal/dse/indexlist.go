package dse

import (
	"bytes"
	"fmt"
	"math"
)

// IndexList is a list of flat indices as it crosses the sweep wire: a
// request's indices and a report's completed and pending lists. It
// encodes as encoding/json encodes []int (it has no MarshalJSON), and
// it decodes in one pass instead of one reflective call per element,
// accepting exactly the documents []int accepts, to the same ints: null,
// or an array of integers and nulls, in range for int. Like encoding/json
// decoding into []int, it decodes in place: the list's backing array is
// reused, so a null element keeps what the array held (zero in a fresh
// list), and an empty array leaves a new empty list.
type IndexList []int

// UnmarshalJSON implements json.Unmarshaler.
func (l *IndexList) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*l = nil
		return nil
	}
	if len(data) < 2 || data[0] != '[' || data[len(data)-1] != ']' {
		return fmt.Errorf("dse: index list %.32q is not an array", data)
	}
	body := data[1 : len(data)-1]
	// Commas bound the element count; growing keeps the array's old
	// contents, as reflect's Grow does, so null elements see them.
	out := *l
	if n := bytes.Count(body, []byte{','}) + 1; cap(out) < n {
		grown := make(IndexList, n)
		copy(grown, out[:cap(out)])
		out = grown
	}
	out = out[:0]
	i := skipSpace(body, 0)
	for i < len(body) {
		out = out[:len(out)+1]
		if bytes.HasPrefix(body[i:], []byte("null")) {
			i += len("null")
		} else {
			v, next, err := parseIndex(body, i)
			if err != nil {
				return err
			}
			out[len(out)-1], i = v, next
		}
		if i = skipSpace(body, i); i == len(body) {
			break
		}
		if body[i] != ',' {
			return fmt.Errorf("dse: index list: %q after element %d", body[i], len(out)-1)
		}
		if i = skipSpace(body, i+1); i == len(body) {
			return fmt.Errorf("dse: index list ends in a comma")
		}
	}
	if len(out) == 0 {
		out = IndexList{}
	}
	*l = out
	return nil
}

// parseIndex reads the JSON integer starting at b[i] (an optional minus,
// then 0 or a digit run without a leading zero) and returns it with the
// offset just past it. A value outside int is an error, as it is for
// encoding/json decoding into an int; a fraction or exponent stops the
// digits short of a delimiter, which the caller rejects.
func parseIndex(b []byte, i int) (int, int, error) {
	neg := b[i] == '-'
	if neg {
		i++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	first := i
	var n uint64
	for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
		d := uint64(b[i] - '0')
		if n > (limit-d)/10 {
			return 0, 0, fmt.Errorf("dse: index %s overflows int", b[first:i+1])
		}
		n = n*10 + d
	}
	if i == first || i-first > 1 && b[first] == '0' {
		return 0, 0, fmt.Errorf("dse: index list element %.16q is not an integer", b[first:])
	}
	v := int(n)
	if neg {
		v = -v // n ≤ |MinInt|, and -MinInt wraps to itself
	}
	return v, i, nil
}

// isJSONSpace reports whether c is JSON's insignificant whitespace.
func isJSONSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && isJSONSpace(b[i]) {
		i++
	}
	return i
}

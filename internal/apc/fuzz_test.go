package apc

import "testing"

// FuzzTrackerMatchesUnion feeds the tracker intervals in arbitrary order
// (new, late, duplicate, nested, touching and zero-length), every start
// within the lateness window of the newest one, and checks its totals
// against the brute-force union: the in-place merge and the retirement of
// intervals behind the window must lose and double-count nothing.
func FuzzTrackerMatchesUnion(f *testing.F) {
	f.Add(uint8(3), []byte{0, 5, 10, 1, 2, 9, 2, 0, 0, 3, 1, 1, 4, 0, 0, 0, 0, 0})
	// Runs of disjoint intervals, each followed by a late one, keep more
	// than 64 intervals open, so the tracker retires some as it goes.
	var spread []byte
	for i := 0; i < 200; i++ {
		spread = append(spread, 0, 40, byte(i%7), 1, byte(i), byte(3*i))
	}
	f.Add(uint8(60), spread)
	f.Fuzz(func(t *testing.T, late uint8, data []byte) {
		lateness := int64(late%64) + 1
		tr := NewTracker(lateness)
		var ivs [][2]int64
		var newest, prevS, prevE int64
		for i := 0; i+2 < len(data); i += 3 {
			op, b, c := data[i]%5, int64(data[i+1]), int64(data[i+2])
			var s, e int64
			switch op {
			case 0: // past the newest start
				s = newest + b
				e = s + c%48
			case 1: // late, within the window
				s = newest - b%(lateness+1)
				e = s + c%48
			case 2: // a duplicate of the previous interval
				s, e = prevS, prevE
			case 3: // nested inside the previous interval
				s = prevS + b%(prevE-prevS+1)
				e = s + c%(prevE-s+1)
			case 4: // touching the previous interval's end
				s = prevE
				e = s + c%48
			}
			if floor := max(0, newest-lateness); s < floor {
				s, e = floor, max(e, floor)
			}
			tr.Add(s, e)
			if e > s {
				ivs = append(ivs, [2]int64{s, e})
				newest = max(newest, s)
			}
			prevS, prevE = s, e
		}
		if got, want := tr.Accesses(), uint64(len(ivs)); got != want {
			t.Fatalf("accesses = %d, want %d", got, want)
		}
		if got, want := tr.ActiveCycles(), bruteUnion(ivs); got != want {
			t.Fatalf("active cycles = %d, brute-force union %d (%d intervals, lateness %d)", got, want, len(ivs), lateness)
		}
	})
}

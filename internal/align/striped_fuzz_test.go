package align

import "testing"

// fuzzScoring derives a valid Scoring from fuzzer-chosen words. Any pair
// the target accepts fits the 16-bit lanes; Match + Mismatch runs up to
// 127, so most scorings start in byte lanes, with anything from 125
// points of headroom to 1 (a pair then widens after its first match),
// and 64 + 63 leaves a byte none. The gap penalties always fit a byte.
func fuzzScoring(match, mism, open, ext uint16) Scoring {
	return Scoring{
		Match:     1 + int(match%64),
		Mismatch:  int(mism % 64),
		GapOpen:   int(open % 64),
		GapExtend: 1 + int(ext%63),
	}
}

// FuzzBitvectorAlign is the differential fuzz target of the bitvector
// kernel: arbitrary byte sequences (codes, wildcards, junk, Masked)
// under arbitrary small scorings must score bit-identically to the
// scalar LocalScore, report the brute-force first best column and its
// uniqueness, answer as the frozen 16-bit kernel does, and widen from
// byte lanes right after the first column whose best exceeds the byte
// headroom, on every route. The kernel must accept every pair within its
// declared lane capacity. Run via `make fuzz-smoke` or directly with
// `go test -fuzz=FuzzBitvectorAlign ./internal/align`.
func FuzzBitvectorAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3}, uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte("\x00\x00\x00\x00\x00"), []byte("\x01\x01\x01\x01"), uint16(1), uint16(1), uint16(0), uint16(1))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{14, 14, 14}, uint16(9), uint16(50), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0x20, 3, 2, 1, 0}, []byte{3, 2, 1, 0, 0xFF}, uint16(2), uint16(7), uint16(0), uint16(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint16(5), uint16(0), uint16(2), uint16(1))
	// Pairs that widen: a 60-base self-pair at the default scoring passes
	// the 118 points of byte headroom at its 24th column; a 40-base query
	// against itself with bases 8–15 cut out, under nearly free gaps,
	// widens after column 8, the column where the gap in the subject that
	// bridges the cut crosses the byte layout's stripes (5 words a column).
	self := []byte("\x00\x01\x02\x03\x03\x02\x00\x01\x01\x03\x02\x00\x02\x02\x01\x00\x03\x01\x00\x02" +
		"\x01\x00\x03\x03\x02\x01\x02\x00\x00\x03\x01\x02\x03\x00\x01\x01\x02\x03\x02\x00" +
		"\x03\x03\x01\x00\x02\x01\x00\x00\x02\x03\x01\x01\x03\x02\x00\x02\x01\x03\x00\x01")
	f.Add(self, self, uint16(4), uint16(4), uint16(10), uint16(1))
	bridge := append(append([]byte(nil), self[:8]...), self[16:40]...)
	f.Add(self[:40], bridge, uint16(8), uint16(50), uint16(1), uint16(0))
	// The committed corpus adds 300- and 600-base queries against homologs
	// with a piece cut out over the middle of the AVX2 layouts, where the
	// cross-lane scan carries F from one 128-bit half into the other: 30
	// bases from byte lane 14 to 17 under the default scoring (three byte
	// scan steps kept, the fourth saturated), 125 bases from word lane 5
	// to 9 after the pair widens under free gap opens, and 2 bases from
	// byte lane 15 to 16 under a gap extension of 13, where the byte scan
	// keeps no step.

	f.Fuzz(func(t *testing.T, a, b []byte, match, mism, open, ext uint16) {
		// Bound the quadratic DP so mutated inputs stay fast. The query,
		// which the kernel stripes, runs to 600 bases, so that the
		// cross-lane scan of F runs several steps and drops those whose
		// decay saturates; the subject to 300, which keeps min(n, m)
		// under the capacity floor below.
		if len(a) > 600 {
			a = a[:600]
		}
		if len(b) > 300 {
			b = b[:300]
		}
		s := fuzzScoring(match, mism, open, ext)
		p := newRoutedProfile(t, a, s)
		var sc StripedScratch
		got, _, _, ok := p.Score(b, &sc)
		if !ok {
			// With Match+Mismatch ≤ 127 the capacity floor is ≥ 509, above
			// the subject's length bound: a refusal here is a kernel bug.
			t.Fatalf("kernel refused len %d×%d under %+v", len(a), len(b), s)
		}
		want, _, _ := LocalScore(a, b, s)
		if got != want {
			t.Fatalf("striped %d != scalar %d under %+v\n a=%v\n b=%v", got, want, s, a, b)
		}
		checkStripedHandover(t, p, &sc, a, b, s)
	})
}

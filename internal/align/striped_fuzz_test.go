package align

import "testing"

// fuzzScoring derives a valid Scoring from fuzzer-chosen words, small
// enough that any pair the target accepts fits the 16-bit lanes.
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
// scalar LocalScore and report the brute-force first best column and
// its uniqueness, and the kernel must accept every pair within its
// declared lane capacity. Run via `make fuzz-smoke` or directly with
// `go test -fuzz=FuzzBitvectorAlign ./internal/align`.
func FuzzBitvectorAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3}, uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte("\x00\x00\x00\x00\x00"), []byte("\x01\x01\x01\x01"), uint16(1), uint16(1), uint16(0), uint16(1))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{14, 14, 14}, uint16(9), uint16(50), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0x20, 3, 2, 1, 0}, []byte{3, 2, 1, 0, 0xFF}, uint16(2), uint16(7), uint16(0), uint16(1))
	f.Add([]byte{}, []byte{1, 2, 3}, uint16(5), uint16(0), uint16(2), uint16(1))

	f.Fuzz(func(t *testing.T, a, b []byte, match, mism, open, ext uint16) {
		// Bound the quadratic DP so mutated inputs stay fast.
		if len(a) > 300 {
			a = a[:300]
		}
		if len(b) > 300 {
			b = b[:300]
		}
		s := fuzzScoring(match, mism, open, ext)
		p := NewStripedProfile(a, s)
		var sc StripedScratch
		got, _, _, ok := p.Score(b, &sc)
		if !ok {
			// With Match+Mismatch ≤ 127 the capacity floor is ≥ 509, far
			// above the length bound: a refusal here is a kernel bug.
			t.Fatalf("kernel refused len %d×%d under %+v", len(a), len(b), s)
		}
		want, _, _ := LocalScore(a, b, s)
		if got != want {
			t.Fatalf("striped %d != scalar %d under %+v\n a=%v\n b=%v", got, want, s, a, b)
		}
		checkStripedHandover(t, p, &sc, a, b, s)
	})
}

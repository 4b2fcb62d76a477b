package db

import (
	"bytes"
	"math/rand"
	"testing"

	"nucleodb/internal/dna"
)

// wildcardStore returns a store of records shaped to stress the range
// read: empty and one-base records, all-wildcard and wildcard-free ones,
// wildcard runs and isolated wildcards, at lengths that end on every
// 2-bit byte boundary.
func wildcardStore(rng *rand.Rand) *Store {
	var s Store
	s.Add("empty", nil)
	s.Add("one", []byte{dna.WildN})
	for i := 0; i < 80; i++ {
		n := rng.Intn(300)
		seq := make([]byte, n)
		rate := []float64{0, 0.02, 0.3, 1}[i%4]
		for j := range seq {
			if rng.Float64() < rate {
				seq[j] = byte(dna.NumBases + rng.Intn(int(dna.NumCodes-dna.NumBases)))
			} else {
				seq[j] = byte(rng.Intn(dna.NumBases))
			}
		}
		if n > 20 && i%5 == 0 { // a wildcard run
			at := rng.Intn(n - 10)
			for j := at; j < at+10; j++ {
				seq[j] = dna.WildN
			}
		}
		s.Add("r", seq)
	}
	return &s
}

// checkRange holds one range read to Sequence(id)[from:to], appended
// after a non-empty prefix so the append contract is checked too.
func checkRange(t *testing.T, s *Store, id, from, to int) {
	t.Helper()
	prefix := []byte{0xAA, 0xBB, 0xCC}
	got := s.AppendRange(prefix[:3:3], id, from, to)
	want := s.Sequence(id)[from:to]
	if !bytes.Equal(got[:3], prefix) || !bytes.Equal(got[3:], want) {
		t.Fatalf("AppendRange(%d, [%d,%d)) = %v, want %v after the prefix", id, from, to, got, want)
	}
}

// TestStoreAppendRange holds the range read to Sequence(id)[from:to] on
// every record of a wildcard-rich store: every range of the records up
// to 24 bases; on longer ones, every range starting or ending on a
// wildcard or either side of one, the whole record, ranges clipped at
// either end, empty ranges, and random ones.
func TestStoreAppendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	s := wildcardStore(rng)
	for id := 0; id < s.Len(); id++ {
		seq := s.Sequence(id)
		n := len(seq)
		if n <= 24 {
			for from := 0; from <= n; from++ {
				for to := from; to <= n; to++ {
					checkRange(t, s, id, from, to)
				}
			}
			continue
		}
		var edges []int
		for j, c := range seq {
			if dna.IsWildcard(c) {
				edges = append(edges, j-1, j, j+1)
			}
		}
		edges = append(edges, 0, 1, 2, 3, 4, n-4, n-1, n)
		for _, e := range edges {
			if e < 0 || e > n {
				continue
			}
			checkRange(t, s, id, e, min(e+1+rng.Intn(40), n))
			checkRange(t, s, id, max(e-1-rng.Intn(40), 0), e)
			checkRange(t, s, id, e, e)
		}
		for k := 0; k < 50; k++ {
			from := rng.Intn(n + 1)
			checkRange(t, s, id, from, from+rng.Intn(n-from+1))
		}
		checkRange(t, s, id, 0, n)
	}
}

// TestStoreAppendRangeRejectsOutside: a range outside the record panics,
// as slicing would, rather than decoding neighbouring bytes.
func TestStoreAppendRangeRejectsOutside(t *testing.T) {
	s := buildStore(t, "ACGTNACGT")
	for _, r := range [][2]int{{-1, 3}, {4, 3}, {0, 10}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AppendRange(0, [%d,%d)) of a 9-base record did not panic", r[0], r[1])
				}
			}()
			s.AppendRange(nil, 0, r[0], r[1])
		}()
	}
}

// TestStoreAppendRangeAllocations: reading into a buffer that already
// has room allocates nothing.
func TestStoreAppendRangeAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	s := wildcardStore(rng)
	buf := make([]byte, 0, 400)
	if n := testing.AllocsPerRun(50, func() {
		for id := 0; id < s.Len(); id++ {
			buf = s.AppendRange(buf[:0], id, 0, s.SeqLen(id))
		}
	}); n != 0 {
		t.Errorf("AppendRange allocates %v times per pass into a grown buffer, want 0", n)
	}
}

// FuzzStoreWindow: for any record (bytes mapped onto the code space, so
// wildcards are common) and any range inside it, the range read equals
// Sequence(id)[from:to], after a neighbouring record so offsets are not
// zero. Run via `make fuzz-smoke` or `go test -fuzz=FuzzStoreWindow
// ./internal/db`.
func FuzzStoreWindow(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6}, uint16(1), uint16(5))
	f.Add([]byte{14, 14, 14, 14, 14}, uint16(0), uint16(5))
	f.Add([]byte{}, uint16(0), uint16(0))
	f.Add([]byte{3, 2, 1, 0, 9, 3, 2, 1, 0, 12, 0, 0, 0}, uint16(4), uint16(10))
	f.Fuzz(func(t *testing.T, raw []byte, a, b uint16) {
		seq := make([]byte, len(raw))
		for i, c := range raw {
			seq[i] = c % dna.NumCodes
		}
		var s Store
		s.Add("before", []byte{dna.WildN, 0, 1})
		id := s.Add("r", seq)
		from, to := int(a)%(len(seq)+1), int(b)%(len(seq)+1)
		if from > to {
			from, to = to, from
		}
		checkRange(t, &s, id, from, to)
	})
}

package postings

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nucleodb/internal/compress"
)

// decodeAll drains an iterator, copying each entry's offsets out of the
// reused scratch.
func decodeAll(next func() bool, entry func() Entry) []Entry {
	var out []Entry
	for next() {
		e := entry()
		if e.Offsets != nil {
			e.Offsets = append([]uint32{}, e.Offsets...)
		}
		out = append(out, e)
	}
	return out
}

// checkAgainstReference holds the production iterator to its contract
// on one byte string: the same entries as refIterator before the first
// error, an error iff the reference has one, and an error that is
// either a corruption or one of the postings range errors.
func checkAgainstReference(t testing.TB, it *Iterator, ref *refIterator, buf []byte, df, numSeqs int, withOffsets bool) {
	t.Helper()
	ref.Reset(buf, df, numSeqs, withOffsets)
	want := decodeAll(ref.Next, ref.Entry)
	it.Reset(buf, df, numSeqs, withOffsets)
	got := decodeAll(it.Next, it.Entry)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("df %d universe %d offsets %v, %d bytes %x:\n got %d entries %+v (err %v)\nwant %d entries %+v (err %v)",
			df, numSeqs, withOffsets, len(buf), clip(buf), len(got), tail(got), it.Err(), len(want), tail(want), ref.Err())
	}
	if (it.Err() == nil) != (ref.Err() == nil) {
		t.Fatalf("df %d universe %d offsets %v, %d bytes %x: after %d entries err = %v, reference err = %v",
			df, numSeqs, withOffsets, len(buf), clip(buf), len(got), it.Err(), ref.Err())
	}
	if it.Decoded() != len(got) {
		t.Fatalf("Decoded() = %d after %d entries", it.Decoded(), len(got))
	}
	if it.Next() {
		t.Fatal("Next returned true after it had returned false")
	}
	if errors.Is(ref.Err(), compress.ErrCorrupt) && len(want) == df {
		t.Fatalf("reference errored after a complete list: %v", ref.Err())
	}
}

func clip(b []byte) []byte {
	if len(b) > 48 {
		return b[:48]
	}
	return b
}

func tail(es []Entry) []Entry {
	if len(es) > 3 {
		return es[len(es)-3:]
	}
	return es
}

// randomList draws df ascending ids from the universe, counts that are
// mostly 1 with a tail up to 300, and offsets whose gaps reach past the
// 28-bit one-window gamma arm up to the uint32 limit.
func randomList(rng *rand.Rand, df, numSeqs int, withOffsets bool) []Entry {
	idSet := map[uint32]bool{}
	switch {
	case df*2 > numSeqs:
		for _, id := range rng.Perm(numSeqs)[:df] {
			idSet[uint32(id)] = true
		}
	default:
		for len(idSet) < df {
			idSet[uint32(rng.Intn(numSeqs))] = true
		}
	}
	ids := make([]uint32, 0, df)
	for id := range idSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]Entry, df)
	for i, id := range ids {
		count := 1
		switch r := rng.Intn(100); {
		case r < 3:
			count = 1 + rng.Intn(300)
		case r < 25:
			count = 1 + rng.Intn(4)
		}
		entries[i] = Entry{ID: id, Count: uint32(count)}
		if !withOffsets {
			continue
		}
		// Offset gaps: short (reads), long (genes), and a few that need a
		// gamma code of more than 55 bits; the last may sit at 2³²−1.
		offs := make([]uint32, 0, count)
		next := uint64(0)
		for j := 0; j < count; j++ {
			var gap uint64
			switch r := rng.Intn(100); {
			case r < 60:
				gap = uint64(rng.Intn(64))
			case r < 90:
				gap = uint64(rng.Intn(1 << 14))
			case r < 97:
				gap = uint64(rng.Intn(1 << 27))
			default:
				gap = 1<<28 + uint64(rng.Int63n(1<<31))
			}
			if next+gap > 1<<32-1 {
				gap = 1<<32 - 1 - next
			}
			offs = append(offs, uint32(next+gap))
			next += gap + 1
			if next > 1<<32-1 {
				break
			}
		}
		entries[i].Offsets = offs
		entries[i].Count = uint32(len(offs))
	}
	return entries
}

// TestIteratorMatchesReference is the decoder's lockdown: valid lists
// over every Golomb-parameter shape (b = 1, powers of two, non-powers),
// each also decoded with the wrong document frequency, cut at every
// byte length, and — the small ones — with every single bit flipped.
func TestIteratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var it Iterator
	var ref refIterator
	for _, numSeqs := range []int{1, 2, 1000, 1<<31 - 1} {
		for _, df := range []int{1, 2, 63, 64, 65, 5000} {
			if df > numSeqs {
				continue
			}
			for _, withOffsets := range []bool{false, true} {
				rounds := 6
				if df == 5000 {
					rounds = 2
				}
				for round := 0; round < rounds; round++ {
					entries := randomList(rng, df, numSeqs, withOffsets)
					buf, err := Encode(entries, numSeqs, withOffsets)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("universe %d df %d offsets %v round %d", numSeqs, df, withOffsets, round)

					// The valid list decodes to what was encoded, by both.
					it.Reset(buf, df, numSeqs, withOffsets)
					if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
						t.Fatalf("%s: valid list does not round-trip: %d entries, err %v", name, len(got), it.Err())
					}
					checkAgainstReference(t, &it, &ref, buf, df, numSeqs, withOffsets)
					// A wrong lexicon: other document frequencies, the other offsets flag.
					for _, wrong := range []int{df + 1, df + 7, df / 2, 3 * df} {
						checkAgainstReference(t, &it, &ref, buf, wrong, numSeqs, withOffsets)
					}
					checkAgainstReference(t, &it, &ref, buf, df, numSeqs, !withOffsets)

					// Every byte length (large lists: both ends and a sample).
					for n := 0; n < len(buf); n++ {
						if len(buf) > 4096 && n > 64 && n < len(buf)-64 && rng.Intn(200) != 0 {
							continue
						}
						checkAgainstReference(t, &it, &ref, buf[:n:n], df, numSeqs, withOffsets)
					}
					// Every single-bit flip of the small ones.
					if len(buf) <= 512 {
						flipped := append([]byte{}, buf...)
						for bit := 0; bit < len(buf)*8; bit++ {
							flipped[bit/8] ^= 0x80 >> (bit % 8)
							checkAgainstReference(t, &it, &ref, flipped, df, numSeqs, withOffsets)
							flipped[bit/8] ^= 0x80 >> (bit % 8)
						}
					}
				}
			}
		}
	}
}

// TestIteratorLongCodes drives the codes that do not fit one window
// through the general reader, at every truncation and bit flip: a Golomb
// quotient of 62 ones under b = 1 (138 of 200 ids, one gap of 63), with
// the count and offsets that follow it decoded from the window the
// general reader hands back; and gamma-coded counts and offset gaps of
// 2²⁸ and more.
func TestIteratorLongCodes(t *testing.T) {
	var entries []Entry
	for id := uint32(0); id < 200; id++ {
		if id >= 68 && id < 130 {
			continue
		}
		e := Entry{ID: id, Count: 1, Offsets: []uint32{id * 3}}
		if id%50 == 30 {
			e = Entry{ID: id, Count: 3, Offsets: []uint32{5, 5 + 1<<28, 1<<32 - 1}}
		}
		entries = append(entries, e)
	}
	if b := compress.GolombParameter(200, uint64(len(entries))); b != 1 {
		t.Fatalf("list has Golomb parameter %d, want 1", b)
	}
	var it Iterator
	var ref refIterator
	for _, withOffsets := range []bool{true, false} {
		es := append([]Entry{}, entries...)
		if !withOffsets {
			for i := range es {
				es[i].Offsets = nil
				if es[i].Count == 3 {
					es[i].Count = 1 << 30 // a 61-bit gamma code
				}
			}
		}
		buf, err := Encode(es, 200, withOffsets)
		if err != nil {
			t.Fatal(err)
		}
		it.Reset(buf, len(es), 200, withOffsets)
		if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, es) {
			t.Fatalf("offsets %v: valid list does not round-trip: %d entries, err %v", withOffsets, len(got), it.Err())
		}
		for n := 0; n <= len(buf); n++ {
			checkAgainstReference(t, &it, &ref, buf[:n:n], len(es), 200, withOffsets)
		}
		flipped := append([]byte{}, buf...)
		for bit := 0; bit < len(buf)*8; bit++ {
			flipped[bit/8] ^= 0x80 >> (bit % 8)
			checkAgainstReference(t, &it, &ref, flipped, len(es), 200, withOffsets)
			flipped[bit/8] ^= 0x80 >> (bit % 8)
		}
	}
}

// TestIteratorLongQuotientAlignments slides Golomb quotients of 56 to
// 190 ones (b = 1: 700 of 1 000 ids, one long gap) across the bit
// alignments of the list's last bytes, where the general reader refills
// byte by byte and can hand the window back with no accounted bit left:
// the count that follows must still be read from real bits, not from
// the window's empty low end.
func TestIteratorLongQuotientAlignments(t *testing.T) {
	const numSeqs, df = 1000, 700
	if b := compress.GolombParameter(numSeqs, df); b != 1 {
		t.Fatalf("list has Golomb parameter %d, want 1", b)
	}
	var it Iterator
	var ref refIterator
	for quotient := uint32(56); quotient <= 190; quotient++ {
		for tail := 0; tail < 9; tail++ {
			for shift := 0; shift < 2; shift++ {
				entries := make([]Entry, 0, df)
				next := uint32(0)
				for len(entries) < df {
					e := Entry{ID: next, Count: 1}
					if len(entries) == df-1-tail {
						e.ID += quotient
						e.Count = 2
					}
					if len(entries) < shift {
						e.Count = 2 // a three-bit count moves everything after it by one bit
					}
					entries = append(entries, e)
					next = e.ID + 1
				}
				buf, err := Encode(entries, numSeqs, false)
				if err != nil {
					t.Fatal(err)
				}
				it.Reset(buf, df, numSeqs, false)
				if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
					t.Fatalf("quotient %d tail %d shift %d: valid list does not round-trip: %d entries, err %v",
						quotient, tail, shift, len(got), it.Err())
				}
				checkAgainstReference(t, &it, &ref, buf, df, numSeqs, false)
			}
		}
	}
}

func equalEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Count != b[i].Count || len(a[i].Offsets) != len(b[i].Offsets) {
			return false
		}
		for j := range a[i].Offsets {
			if a[i].Offsets[j] != b[i].Offsets[j] {
				return false
			}
		}
	}
	return true
}

// TestIteratorRandomBytes: arbitrary byte strings, where nearly every
// decode ends in an error — the two decoders must agree on where.
func TestIteratorRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var it Iterator
	var ref refIterator
	for i := 0; i < 20000; i++ {
		buf := make([]byte, rng.Intn(40))
		switch i % 3 {
		case 0:
			rng.Read(buf)
		case 1: // mostly zeros: short codes, many entries
			for j := range buf {
				buf[j] = byte(rng.Intn(256)) & byte(rng.Intn(256)) & byte(rng.Intn(256))
			}
		default: // mostly ones: unary runs longer than a window
			for j := range buf {
				buf[j] = byte(rng.Intn(256)) | byte(rng.Intn(256)) | byte(rng.Intn(256))
			}
		}
		numSeqs := []int{1, 2, 37, 1000, 1 << 20, 1<<31 - 1}[rng.Intn(6)]
		df := 1 + rng.Intn(300)
		if i%5 == 0 {
			df = 1 + rng.Intn(1500) // b = 1 and 2 over the universe of 1 000
		}
		checkAgainstReference(t, &it, &ref, buf, df, numSeqs, i%2 == 0)
	}
}

// TestCorruptCountIsBounded: a count of 2³¹ over a twenty-byte list must
// fail on the bits the list has, not spin over the zero fill or grow the
// offset scratch towards 2³¹ entries.
func TestCorruptCountIsBounded(t *testing.T) {
	w := compress.NewBitWriter(32)
	compress.PutGolomb(w, 1, compress.GolombParameter(1000, 1))
	compress.PutGamma(w, 1<<31)
	buf := append(w.Bytes(), make([]byte, 12)...)
	var it Iterator
	it.Reset(buf, 1, 1000, true)
	if it.Next() {
		t.Fatal("Next accepted an entry whose count exceeds the list")
	}
	if !errors.Is(it.Err(), compress.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", it.Err())
	}
	if cap(it.offsets) > len(buf)*8 {
		t.Fatalf("offset scratch grew to %d entries over a %d-byte list", cap(it.offsets), len(buf))
	}
}

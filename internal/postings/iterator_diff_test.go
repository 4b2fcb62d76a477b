package postings

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
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

// testLens is the cycle of sequence lengths the differential suites'
// universes are built from: genes, a k-mer, the longest sequence an
// index stores, a single base, reads, an empty sequence (no posting
// with offsets can name it) and a chromosome-sized one.
var testLens = [...]int32{20000, 9, 1<<31 - 1, 1, 150, 0, 5000, 1 << 26, 300}

var (
	testSeqsMu    sync.Mutex
	testSeqsCache = map[int]Seqs{}
)

// maxTestLens is the largest universe testSeqs builds. Every list codes
// offsets against its sequences' lengths, so such a universe costs five
// bytes a sequence; the 2³¹−1 an index allows is bigSeqs', which keeps
// only the lengths it uses in memory.
const maxTestLens = 1 << 22

// testSeqs returns the universe of n sequences whose lengths cycle
// through testLens.
func testSeqs(n int) Seqs {
	testSeqsMu.Lock()
	defer testSeqsMu.Unlock()
	if s, ok := testSeqsCache[n]; ok {
		return s
	}
	lens := make([]int32, n)
	for i := range lens {
		lens[i] = testLens[i%len(testLens)]
	}
	s := NewSeqs(lens)
	testSeqsCache[n] = s
	return s
}

// checkAgainstReference holds the production iterator to its contract
// on one byte string: the same entries as refIterator before the first
// error, an error iff the reference has one, and an error that is
// either a corruption or one of the postings range errors.
func checkAgainstReference(t testing.TB, it *Iterator, ref *refIterator, buf []byte, df int, seqs Seqs) {
	t.Helper()
	numSeqs := seqs.Len()
	ref.Reset(buf, df, seqs)
	want := decodeAll(ref.Next, ref.Entry)
	it.Reset(buf, df, seqs)
	got := decodeAll(it.Next, it.Entry)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("df %d universe %d, %d bytes %x:\n got %d entries %+v (err %v)\nwant %d entries %+v (err %v)",
			df, numSeqs, len(buf), clip(buf), len(got), tail(got), it.Err(), len(want), tail(want), ref.Err())
	}
	if (it.Err() == nil) != (ref.Err() == nil) {
		t.Fatalf("df %d universe %d, %d bytes %x: after %d entries err = %v, reference err = %v",
			df, numSeqs, len(buf), clip(buf), len(got), it.Err(), ref.Err())
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

// nonEmpty returns the ids of the universe's sequences that have a base.
func nonEmpty(seqs Seqs) []uint32 {
	var ids []uint32
	for id, l := range seqs.lens {
		if l > 0 {
			ids = append(ids, uint32(id))
		}
	}
	return ids
}

// randomList draws df ascending ids from eligible, the ids of sequences
// that have a base, counts that are mostly 1 with a tail up to 300, and
// offsets whose gaps reach from neighbours to past 2²⁸, cut at the
// sequence's last base; a Rice code of a gap that far past its
// parameter has a quotient too long for one window.
func randomList(rng *rand.Rand, df int, seqs Seqs, eligible []uint32) []Entry {
	universe, pick := len(eligible), func(i int) uint32 { return eligible[i] }
	if df > universe {
		return nil
	}
	idSet := map[uint32]bool{}
	switch {
	case df*2 > universe:
		for _, i := range rng.Perm(universe)[:df] {
			idSet[pick(i)] = true
		}
	default:
		for len(idSet) < df {
			idSet[pick(rng.Intn(universe))] = true
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
		// Offset gaps: short (reads), long (genes), and a few far past
		// the parameter; the last may sit on the sequence's last base.
		last := uint64(seqs.lens[id]) - 1
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
			if next+gap > last {
				gap = last - next
			}
			offs = append(offs, uint32(next+gap))
			next += gap + 1
			if next > last {
				break
			}
		}
		entries[i].Offsets = offs
		entries[i].Count = uint32(len(offs))
	}
	return entries
}

// TestIteratorMatchesReference is the decoder's lockdown: valid lists
// over every Golomb-parameter shape (b = 1, powers of two, non-powers,
// and over the 2³¹−1 universe parameters of up to 31 bits) and every
// sequence length in testLens, each also decoded with the wrong
// document frequency, cut at every byte length, and — the small ones —
// with every single bit flipped.
func TestIteratorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var it Iterator
	var ref refIterator
	for _, numSeqs := range []int{1, 2, 1000, maxTestLens, bigUniverse} {
		var seqs Seqs
		var eligible []uint32
		if numSeqs == bigUniverse {
			var ok bool
			if seqs, eligible, ok = bigSeqs(); !ok {
				t.Log("no sparse memory for the 2³¹−1 universe on this platform; skipping it")
				continue
			}
		} else {
			seqs = testSeqs(numSeqs)
			eligible = nonEmpty(seqs)
		}
		for _, df := range []int{1, 2, 63, 64, 65, 5000} {
			if df > numSeqs {
				continue
			}
			rounds := 6
			if df == 5000 {
				rounds = 2
			}
			for round := 0; round < rounds; round++ {
				entries := randomList(rng, df, seqs, eligible)
				if entries == nil {
					continue
				}
				buf, err := Encode(entries, seqs)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("universe %d df %d round %d", numSeqs, df, round)

				// The valid list decodes to what was encoded, by both.
				it.Reset(buf, df, seqs)
				if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
					t.Fatalf("%s: valid list does not round-trip: %d entries, err %v", name, len(got), it.Err())
				}
				checkAgainstReference(t, &it, &ref, buf, df, seqs)
				// A wrong lexicon: other document frequencies.
				for _, wrong := range []int{df + 1, df + 7, df / 2, 3 * df} {
					checkAgainstReference(t, &it, &ref, buf, wrong, seqs)
				}

				// Every byte length (large lists: both ends and a sample).
				for n := 0; n < len(buf); n++ {
					if len(buf) > 4096 && n > 64 && n < len(buf)-64 && rng.Intn(200) != 0 {
						continue
					}
					checkAgainstReference(t, &it, &ref, buf[:n:n], df, seqs)
				}
				// Every single-bit flip of the small ones.
				if len(buf) <= 512 {
					flipped := append([]byte{}, buf...)
					for bit := 0; bit < len(buf)*8; bit++ {
						flipped[bit/8] ^= 0x80 >> (bit % 8)
						checkAgainstReference(t, &it, &ref, flipped, df, seqs)
						flipped[bit/8] ^= 0x80 >> (bit % 8)
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
// general reader hands back; and Rice-coded offset gaps of 2³⁰ under
// the parameter of a hundred offsets in a 2³¹−1-base sequence (k = 23),
// a quotient of 128.
func TestIteratorLongCodes(t *testing.T) {
	buf, entries, seqs := longCodeList(t)
	var it Iterator
	var ref refIterator
	it.Reset(buf, len(entries), seqs)
	if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
		t.Fatalf("valid list does not round-trip: %d entries, err %v", len(got), it.Err())
	}
	for n := 0; n <= len(buf); n++ {
		checkAgainstReference(t, &it, &ref, buf[:n:n], len(entries), seqs)
	}
	flipped := append([]byte{}, buf...)
	for bit := 0; bit < len(buf)*8; bit++ {
		flipped[bit/8] ^= 0x80 >> (bit % 8)
		checkAgainstReference(t, &it, &ref, flipped, len(entries), seqs)
		flipped[bit/8] ^= 0x80 >> (bit % 8)
	}
}

// TestIteratorWarmAllocs: once its offset scratch has grown, the
// iterator decodes a list without allocating, on every arm of Next that
// a valid list reaches: the one-window codes, the Golomb quotient too
// long for one window, multi-offset runs through offsetRun, Rice codes
// longer than a window, and the refill of the list's last bytes.
func TestIteratorWarmAllocs(t *testing.T) {
	buf, entries, seqs := longCodeList(t)
	var it Iterator
	decode := func() {
		it.Reset(buf, len(entries), seqs)
		for it.Next() {
		}
		if it.Err() != nil || it.Decoded() != len(entries) {
			t.Fatalf("decoded %d of %d entries: %v", it.Decoded(), len(entries), it.Err())
		}
	}
	decode() // grow the offset scratch to the longest posting
	if n := testing.AllocsPerRun(20, decode); n != 0 {
		t.Fatalf("a warm decode allocates %v times a list, want 0", n)
	}
}

// longCodeList is a list with Golomb parameter 1 and one gap of 62 ids,
// whose quotient is too long for one window, among one-offset postings;
// every fiftieth posting has a hundred offsets in a 2³¹−1-base sequence,
// the last two with Rice quotients past a window.
func longCodeList(t *testing.T) ([]byte, []Entry, Seqs) {
	t.Helper()
	lens := make([]int32, 200)
	var entries []Entry
	for id := uint32(0); id < 200; id++ {
		lens[id] = 1000
		if id >= 68 && id < 130 {
			continue
		}
		e := Entry{ID: id, Count: 1, Offsets: []uint32{id * 3}}
		if id%50 == 30 {
			lens[id] = 1<<31 - 1
			e.Offsets = nil
			for off := uint32(0); off < 98; off++ {
				e.Offsets = append(e.Offsets, off)
			}
			e.Offsets = append(e.Offsets, 1<<30, 1<<31-2)
			e.Count = uint32(len(e.Offsets))
		}
		entries = append(entries, e)
	}
	seqs := NewSeqs(lens)
	if b := compress.GolombParameter(200, uint64(len(entries))); b != 1 {
		t.Fatalf("list has Golomb parameter %d, want 1", b)
	}
	if k := offsetParameter(1<<31-1, 100); k != 23 {
		t.Fatalf("a hundred offsets in 2³¹−1 bases have Rice parameter %d, want 23", k)
	}
	buf, err := Encode(entries, seqs)
	if err != nil {
		t.Fatal(err)
	}
	return buf, entries, seqs
}

// TestIteratorLongQuotientAlignments slides Golomb quotients of 56 to
// 190 ones (b = 1: 700 of 1 000 ids, one long gap) across the bit
// alignments of the list's last bytes, where the general reader refills
// byte by byte and can hand the window back with no accounted bit left:
// the count that follows must still be read from real bits, not from
// the window's empty low end. Every sequence is two bases long, so each
// posting's offsets, one or two, cost two bits apiece.
func TestIteratorLongQuotientAlignments(t *testing.T) {
	const numSeqs, df = 1000, 700
	if b := compress.GolombParameter(numSeqs, df); b != 1 {
		t.Fatalf("list has Golomb parameter %d, want 1", b)
	}
	lens := make([]int32, numSeqs)
	for i := range lens {
		lens[i] = 2
	}
	seqs := NewSeqs(lens)
	var it Iterator
	var ref refIterator
	for quotient := uint32(56); quotient <= 190; quotient++ {
		for tail := 0; tail < 9; tail++ {
			for shift := 0; shift < 2; shift++ {
				entries := make([]Entry, 0, df)
				next := uint32(0)
				for len(entries) < df {
					e := Entry{ID: next, Count: 1, Offsets: []uint32{0}}
					if len(entries) == df-1-tail {
						e.ID += quotient
						e.Count, e.Offsets = 2, []uint32{0, 1}
					}
					if len(entries) < shift {
						// A longer count and a second offset shift
						// everything after them.
						e.Count, e.Offsets = 2, []uint32{0, 1}
					}
					entries = append(entries, e)
					next = e.ID + 1
				}
				buf, err := Encode(entries, seqs)
				if err != nil {
					t.Fatal(err)
				}
				it.Reset(buf, df, seqs)
				if got := decodeAll(it.Next, it.Entry); it.Err() != nil || !equalEntries(got, entries) {
					t.Fatalf("quotient %d tail %d shift %d: valid list does not round-trip: %d entries, err %v",
						quotient, tail, shift, len(got), it.Err())
				}
				checkAgainstReference(t, &it, &ref, buf, df, seqs)
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
		numSeqs := []int{1, 2, 37, 1000, 1 << 20, maxTestLens, bigUniverse}[rng.Intn(7)]
		df := 1 + rng.Intn(300)
		if i%5 == 0 {
			df = 1 + rng.Intn(1500) // b = 1 and 2 over the universe of 1 000
		}
		seqs := testSeqs(min(numSeqs, maxTestLens))
		if big, _, ok := bigSeqs(); ok && numSeqs == bigUniverse {
			seqs = big
		}
		checkAgainstReference(t, &it, &ref, buf, df, seqs)
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
	it.Reset(buf, 1, testSeqs(1000))
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

// TestOffsetPastSequenceIsCorrupt: an offset at or past its sequence's
// length — hand-coded, since Encode refuses to write one — is a
// corruption to both decoders, on the one-offset arm and on the run of
// several, and in an empty sequence; the last base is still an offset.
func TestOffsetPastSequenceIsCorrupt(t *testing.T) {
	seqs := NewSeqs([]int32{10, 3, 0})
	list := func(id uint32, offs ...uint32) []byte {
		w := compress.NewBitWriter(16)
		compress.PutGolomb(w, uint64(id)+1, compress.GolombParameter(3, 1))
		compress.PutGamma(w, uint64(len(offs)))
		k := offsetParameter(seqs.lens[id], uint64(len(offs)))
		prev := int64(-1)
		for _, off := range offs {
			compress.PutRice(w, uint64(int64(off)-prev), k)
			prev = int64(off)
		}
		return w.Bytes()
	}
	var it Iterator
	var ref refIterator
	for _, c := range []struct {
		name    string
		buf     []byte
		corrupt bool
	}{
		{"last base", list(0, 9), false},
		{"one past the end", list(0, 10), true},
		{"far past the end", list(0, 1000), true},
		{"run ending on the last base", list(1, 0, 2), false},
		{"run past the end", list(1, 1, 3), true},
		{"empty sequence", list(2, 0), true},
	} {
		checkAgainstReference(t, &it, &ref, c.buf, 1, seqs)
		it.Reset(c.buf, 1, seqs)
		for it.Next() {
		}
		if got := errors.Is(it.Err(), compress.ErrCorrupt); got != c.corrupt {
			t.Errorf("%s: err = %v, want corrupt %v", c.name, it.Err(), c.corrupt)
		}
	}
}

package postings

import "testing"

// fuzzNumSeqs is the identifier universe the fuzz targets decode
// against; small enough that corrupt gap runs leave it quickly.
const fuzzNumSeqs = 1000

// fuzzSeedList returns an encoded valid list to seed the corpora.
func fuzzSeedList(t interface{ Fatal(...any) }, withOffsets bool) ([]byte, int) {
	entries := []Entry{
		{ID: 0, Count: 2, Offsets: []uint32{3, 90}},
		{ID: 7, Count: 1, Offsets: []uint32{44}},
		{ID: 512, Count: 3, Offsets: []uint32{0, 1, 7000}},
		{ID: 999, Count: 1, Offsets: []uint32{12}},
	}
	if !withOffsets {
		for i := range entries {
			entries[i].Offsets = nil
		}
	}
	buf, err := Encode(entries, fuzzNumSeqs, withOffsets)
	if err != nil {
		t.Fatal(err)
	}
	return buf, len(entries)
}

// FuzzPostingsDecode feeds arbitrary bytes to the postings iterator.
// Whatever the bytes, iteration must terminate with entries that stay
// inside the declared universe — a decoded id out of range would index
// past the coarse accumulator arrays — and errors, not panics, must
// flag the corruption. The entries and the error/no-error outcome must
// also equal the frozen reference decoder's (refIterator).
func FuzzPostingsDecode(f *testing.F) {
	for _, withOffsets := range []bool{false, true} {
		buf, _ := fuzzSeedList(f, withOffsets)
		f.Add(buf, uint16(4), withOffsets)
		mangled := append([]byte{}, buf...)
		for i := 0; i < len(mangled); i += 3 {
			mangled[i] ^= 0x40
		}
		f.Add(mangled, uint16(4), withOffsets)
		if len(buf) > 2 {
			f.Add(buf[:len(buf)/2], uint16(4), withOffsets)
		}
	}
	f.Add([]byte{}, uint16(0), false)
	f.Add([]byte{0xFF, 0xFF, 0xFF}, uint16(200), true)

	f.Fuzz(func(t *testing.T, data []byte, dfRaw uint16, withOffsets bool) {
		df := int(dfRaw)
		var it Iterator
		it.Reset(data, df, fuzzNumSeqs, withOffsets)
		n := 0
		prev := int64(-1)
		for it.Next() {
			e := it.Entry()
			if int(e.ID) >= fuzzNumSeqs {
				t.Fatalf("entry %d id %d outside universe %d", n, e.ID, fuzzNumSeqs)
			}
			if int64(e.ID) <= prev {
				t.Fatalf("entry %d id %d not ascending after %d", n, e.ID, prev)
			}
			prev = int64(e.ID)
			if e.Count == 0 {
				t.Fatalf("entry %d zero count", n)
			}
			if withOffsets && len(e.Offsets) != int(e.Count) {
				t.Fatalf("entry %d count %d with %d offsets", n, e.Count, len(e.Offsets))
			}
			n++
			if n > df {
				t.Fatalf("iterator produced %d entries for df %d", n, df)
			}
		}
		if err := it.Err(); err == nil && n != df && df > 0 {
			t.Fatalf("clean iteration stopped at %d of %d entries", n, df)
		}
		if it.Decoded() != n {
			t.Fatalf("Decoded() %d after %d entries", it.Decoded(), n)
		}

		// And it must be the frozen per-call-checked decoder's answer:
		// the same entries before the first error, an error iff it errs.
		var ref refIterator
		checkAgainstReference(t, &it, &ref, data, df, fuzzNumSeqs, withOffsets)
	})
}

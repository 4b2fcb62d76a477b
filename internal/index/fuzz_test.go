package index

import (
	"bytes"
	"testing"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// FuzzLoad feeds arbitrary bytes to the index loader: it must reject
// garbage with an error — never panic, hang, or allocate absurdly. The
// seeds are images of the one format Save writes, offsets stored.
func FuzzLoad(f *testing.F) {
	s := randomStore(111, 10, 200)
	for _, opts := range []Options{{K: 4}, {K: 5}} {
		idx, err := Build(s, opts)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := idx.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Seed a few corruptions of a valid image.
		for _, cut := range []int{8, 16, buf.Len() / 2} {
			f.Add(buf.Bytes()[:cut])
		}
		mangled := append([]byte{}, buf.Bytes()...)
		for i := 10; i < len(mangled); i += 7 {
			mangled[i] ^= 0x55
		}
		f.Add(mangled)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything accepted must be walkable without panicking; the
		// posting decoders may report corruption but must stay inside
		// their buffers.
		var it postings.Iterator
		idx.Terms(func(term kmer.Term, df int) {
			got, _ := idx.ReaderStats(term, &it)
			if got != df {
				t.Fatalf("ReaderStats df %d, lexicon df %d", got, df)
			}
			n := 0
			for it.Next() && n <= df {
				n++
			}
			_ = it.Err() // errors are acceptable on fuzzed input; panics are not
		})
	})
}

package index

import (
	"testing"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// TestIndexCompleteness asserts the defining invariant of the inverted
// index: every interval occurrence in every sequence is findable
// through its term's posting list (unless stopped), with the exact
// offset when offsets are stored — and nothing else is.
func TestIndexCompleteness(t *testing.T) {
	for _, opts := range []Options{
		{K: 4},
		{K: 7},
		{K: 5, StopFraction: 0.02},
		{SpacedMask: "110101"},
	} {
		s := randomStore(231+int64(opts.K), 30, 250)
		idx, err := Build(s, opts)
		if err != nil {
			t.Fatal(err)
		}
		coder := idx.Coder()

		// Forward direction: every occurrence is indexed.
		missing := 0
		for id := 0; id < s.Len(); id++ {
			seq := s.Sequence(id)
			coder.ExtractFunc(seq, func(pos int, term kmer.Term) {
				if idx.Stopped(term) {
					return
				}
				entries, err := idx.Postings(term)
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range entries {
					if int(e.ID) != id {
						continue
					}
					for _, off := range e.Offsets {
						if int(off) == pos {
							return
						}
					}
				}
				missing++
			})
		}
		if missing > 0 {
			t.Fatalf("opts %+v: %d occurrences missing from the index", opts, missing)
		}

		// Reverse direction: every posting corresponds to a real
		// occurrence, and document frequencies match entry counts.
		idx.Terms(func(term kmer.Term, df int) {
			entries, err := idx.Postings(term)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != df {
				t.Fatalf("term %d: %d entries, lexicon df %d", term, len(entries), df)
			}
			for _, e := range entries {
				seq := s.Sequence(int(e.ID))
				for _, off := range e.Offsets {
					if got := coder.Encode(seq[off:]); got != term {
						t.Fatalf("term %d: offset %d in seq %d encodes to %d", term, off, e.ID, got)
					}
				}
				if int(e.Count) != len(e.Offsets) {
					t.Fatalf("term %d: count %d vs %d offsets", term, e.Count, len(e.Offsets))
				}
			}
		})
	}
}

// TestIndexTotalsConsistent cross-checks aggregate counters against a
// full walk.
func TestIndexTotalsConsistent(t *testing.T) {
	s := randomStore(241, 40, 300)
	idx, err := Build(s, Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	walkPostings, walkTerms := 0, 0
	var it postings.Iterator
	idx.Terms(func(term kmer.Term, df int) {
		walkTerms++
		got, _ := idx.ReaderStats(term, &it)
		n := 0
		for it.Next() {
			n++
		}
		if it.Err() != nil {
			t.Fatal(it.Err())
		}
		if n != got {
			t.Fatalf("term %d: iterated %d, df %d", term, n, got)
		}
		walkPostings += n
	})
	if walkTerms != idx.NumTermsIndexed() {
		t.Errorf("walked %d terms, NumTermsIndexed %d", walkTerms, idx.NumTermsIndexed())
	}
	if walkPostings != idx.TotalPostings() {
		t.Errorf("walked %d postings, TotalPostings %d", walkPostings, idx.TotalPostings())
	}
	// Total occurrences equal the collection's interval count minus
	// nothing (no stopping here).
	coder := idx.Coder()
	wantOcc := 0
	for id := 0; id < s.Len(); id++ {
		wantOcc += coder.NumIntervals(s.SeqLen(id))
	}
	gotOcc := 0
	idx.Terms(func(term kmer.Term, df int) {
		entries, err := idx.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			gotOcc += int(e.Count)
		}
	})
	if gotOcc != wantOcc {
		t.Errorf("indexed %d occurrences, collection has %d", gotOcc, wantOcc)
	}
}

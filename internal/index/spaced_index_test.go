package index

import (
	"bytes"
	"testing"

	"nucleodb/internal/kmer"
)

func TestBuildSpacedIndex(t *testing.T) {
	s := randomStore(211, 40, 300)
	idx, err := Build(s, Options{SpacedMask: "1101011"})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Options().SpacedMask; got != "1101011" {
		t.Errorf("mask = %q", got)
	}
	if idx.K() != 5 { // weight of the mask
		t.Errorf("K = %d, want 5 (mask weight)", idx.K())
	}
	if !idx.Coder().Spaced() {
		t.Error("coder not spaced")
	}
	// Postings point at real windows: every posting offset must admit
	// a window of the mask's span, and re-encoding the stored window
	// must reproduce the term.
	span := idx.Coder().Span()
	checked := 0
	idx.Terms(func(term kmer.Term, df int) {
		entries, err := idx.Postings(term)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			for _, off := range e.Offsets {
				if int(off)+span > idx.SeqLen(int(e.ID)) {
					t.Fatalf("offset %d + span %d beyond sequence %d length %d",
						off, span, e.ID, idx.SeqLen(int(e.ID)))
				}
				// The term re-derives from the stored sequence window.
				seq := s.Sequence(int(e.ID))
				if got := idx.Coder().Encode(seq[off:]); got != term {
					t.Fatalf("posting window does not encode to its term")
				}
				checked++
			}
		}
	})
	if checked == 0 {
		t.Fatal("no postings checked")
	}
}

func TestSpacedIndexSaveLoad(t *testing.T) {
	s := randomStore(212, 20, 250)
	idx, err := Build(s, Options{SpacedMask: "110101"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Options() != idx.Options() {
		t.Fatalf("options = %+v, want %+v", got.Options(), idx.Options())
	}
	if !got.Coder().Spaced() || got.Coder().Mask() != "110101" {
		t.Error("loaded coder lost its mask")
	}
}

func TestSpacedMaskValidation(t *testing.T) {
	s := randomStore(213, 5, 100)
	for _, mask := range []string{"0", "01", "1x", "11111111111111111"} {
		if _, err := Build(s, Options{SpacedMask: mask}); err == nil {
			t.Errorf("mask %q accepted", mask)
		}
	}
	// A spaced build ignores K entirely.
	idx, err := Build(s, Options{SpacedMask: "101", K: 99})
	if err != nil {
		t.Fatalf("spaced build with junk K rejected: %v", err)
	}
	if idx.K() != 2 {
		t.Errorf("K = %d, want mask weight 2", idx.K())
	}
}

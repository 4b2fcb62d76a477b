package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPack2RoundTrip(t *testing.T) {
	for _, s := range []string{"", "A", "AC", "ACG", "ACGT", "ACGTA", "TTTTTTTTT", "GATTACA"} {
		codes := MustEncode(s)
		packed, subs := Pack2Lossy(codes)
		if subs != 0 {
			t.Fatalf("Pack2Lossy(%s) substituted %d bases of a wildcard-free sequence", s, subs)
		}
		if len(packed) != PackedLen(len(codes)) {
			t.Errorf("Pack2Lossy(%s) length = %d, want %d", s, len(packed), PackedLen(len(codes)))
		}
		got := make([]byte, len(codes))
		Unpack2Into(packed, got)
		if !bytes.Equal(got, codes) {
			t.Errorf("round trip %s = %s", s, String(got))
		}
	}
}

func TestPack2Lossy(t *testing.T) {
	packed, subs := Pack2Lossy(MustEncode("ANGT"))
	if subs != 1 {
		t.Errorf("substituted = %d, want 1", subs)
	}
	got := make([]byte, 4)
	Unpack2Into(packed, got)
	if got[0] != BaseA || got[2] != BaseG || got[3] != BaseT {
		t.Errorf("lossy pack corrupted concrete bases: %s", String(got))
	}
	if !IsBase(got[1]) {
		t.Errorf("wildcard slot not a base: %d", got[1])
	}
}

func TestUnpack2IntoPartial(t *testing.T) {
	codes := MustEncode("ACGTACG") // 7 bases: exercises the tail loop
	packed, _ := Pack2Lossy(codes)
	dst := make([]byte, 7)
	Unpack2Into(packed, dst)
	if !bytes.Equal(dst, codes) {
		t.Errorf("Unpack2Into = %s, want %s", String(dst), String(codes))
	}
}

func TestPropertyPackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint16) bool {
		codes := randomCodes(rng, int(n%4096), false)
		packed, subs := Pack2Lossy(codes)
		got := make([]byte, len(codes))
		Unpack2Into(packed, got)
		return subs == 0 && bytes.Equal(got, codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPackedLen(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 4: 1, 5: 2, 8: 2, 9: 3}
	for n, want := range cases {
		if got := PackedLen(n); got != want {
			t.Errorf("PackedLen(%d) = %d, want %d", n, got, want)
		}
	}
}

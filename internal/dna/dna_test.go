package dna

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := []byte("ACGTRYSWKMBDHVN")
	codes, err := Encode(in)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := Decode(codes); !bytes.Equal(got, in) {
		t.Errorf("round trip = %q, want %q", got, in)
	}
}

func TestEncodeLowerCaseAndU(t *testing.T) {
	codes, err := Encode([]byte("acgu"))
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	want := []byte{BaseA, BaseC, BaseG, BaseT}
	if !bytes.Equal(codes, want) {
		t.Errorf("Encode(acgu) = %v, want %v", codes, want)
	}
}

func TestEncodeRejectsInvalidLetter(t *testing.T) {
	for _, bad := range []string{"ACGX", "AC-T", "ACG ", "1ACG"} {
		if _, err := Encode([]byte(bad)); err == nil {
			t.Errorf("Encode(%q) succeeded, want error", bad)
		}
	}
}

func TestCodeValidity(t *testing.T) {
	for c := byte(0); c < NumCodes; c++ {
		if !ValidCode(c) {
			t.Errorf("ValidCode(%d) = false", c)
		}
		if IsBase(c) == IsWildcard(c) {
			t.Errorf("code %d is both/neither base and wildcard", c)
		}
	}
	if ValidCode(NumCodes) {
		t.Error("ValidCode(NumCodes) = true")
	}
}

func TestComplementInvolution(t *testing.T) {
	for c := byte(0); c < NumCodes; c++ {
		if got := Complement(Complement(c)); got != c {
			t.Errorf("Complement(Complement(%c)) = %c", Letter(c), Letter(got))
		}
	}
}

func TestComplementBases(t *testing.T) {
	pairs := map[byte]byte{BaseA: BaseT, BaseC: BaseG}
	for a, b := range pairs {
		if Complement(a) != b || Complement(b) != a {
			t.Errorf("complement pair %c/%c broken", Letter(a), Letter(b))
		}
	}
}

func TestReverseComplement(t *testing.T) {
	seq := MustEncode("AACGT")
	want := "ACGTT"
	if got := String(ReverseComplement(seq)); got != want {
		t.Errorf("ReverseComplement(AACGT) = %s, want %s", got, want)
	}
	// Involution.
	if got := String(ReverseComplement(ReverseComplement(seq))); got != "AACGT" {
		t.Errorf("double reverse complement = %s", got)
	}
}

func TestMatchesWildcards(t *testing.T) {
	cases := []struct {
		a, b byte
		want bool
	}{
		{BaseA, BaseA, true},
		{BaseA, BaseC, false},
		{WildN, BaseA, true},
		{WildN, BaseT, true},
		{WildR, BaseA, true},
		{WildR, BaseG, true},
		{WildR, BaseC, false},
		{WildR, WildY, false}, // disjoint sets A|G vs C|T
		{WildR, WildW, true},  // share A
		{WildB, BaseA, false},
	}
	for _, c := range cases {
		if got := Matches(c.a, c.b); got != c.want {
			t.Errorf("Matches(%c,%c) = %v, want %v", Letter(c.a), Letter(c.b), got, c.want)
		}
		if got := Matches(c.b, c.a); got != c.want {
			t.Errorf("Matches(%c,%c) not symmetric", Letter(c.b), Letter(c.a))
		}
	}
}

func TestCanonicalBaseInSet(t *testing.T) {
	for c := byte(0); c < NumCodes; c++ {
		b := CanonicalBase(c)
		if !IsBase(b) {
			t.Fatalf("CanonicalBase(%c) = %d, not a base", Letter(c), b)
		}
		if !Matches(c, b) {
			t.Errorf("CanonicalBase(%c) = %c not in ambiguity set", Letter(c), Letter(b))
		}
	}
}

func TestCountWildcards(t *testing.T) {
	if got := CountWildcards(MustEncode("ACGT")); got != 0 {
		t.Errorf("CountWildcards(ACGT) = %d", got)
	}
	if got := CountWildcards(MustEncode("ANNRT")); got != 3 {
		t.Errorf("CountWildcards(ANNRT) = %d, want 3", got)
	}
}

// randomCodes produces arbitrary valid code sequences for property tests.
func randomCodes(rng *rand.Rand, n int, wildcards bool) []byte {
	codes := make([]byte, n)
	for i := range codes {
		if wildcards && rng.Intn(10) == 0 {
			codes[i] = byte(NumBases + rng.Intn(NumCodes-NumBases))
		} else {
			codes[i] = byte(rng.Intn(NumBases))
		}
	}
	return codes
}

func TestPropertyEncodeDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		codes := randomCodes(rng, int(n), true)
		letters := Decode(codes)
		back, err := Encode(letters)
		if err != nil {
			return false
		}
		return bytes.Equal(back, codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyReverseComplementPreservesWildcardCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		codes := randomCodes(rng, int(n), true)
		return CountWildcards(ReverseComplement(codes)) == CountWildcards(codes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

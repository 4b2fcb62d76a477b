package align

import (
	"math/rand"
	"testing"
)

func TestLocalAllFindsRepeatedDomains(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	s := DefaultScoring()
	domain := randomSeq(rng, 60)
	spacer := randomSeq(rng, 80)
	// Subject contains the domain twice, separated by noise.
	var b []byte
	b = append(b, spacer...)
	b = append(b, domain...)
	b = append(b, spacer...)
	b = append(b, domain...)
	b = append(b, spacer...)

	hsps := LocalAll(domain, b, s, 100, 5)
	if len(hsps) < 2 {
		t.Fatalf("found %d HSPs, want ≥ 2", len(hsps))
	}
	// Best-first ordering.
	for i := 1; i < len(hsps); i++ {
		if hsps[i].Score > hsps[i-1].Score {
			t.Fatal("HSPs not best-first")
		}
	}
	// The top two are the two domain copies, disjoint in the subject.
	a0, a1 := hsps[0], hsps[1]
	if a0.Score != 60*s.Match || a1.Score != 60*s.Match {
		t.Errorf("domain copies scored %d and %d, want %d", a0.Score, a1.Score, 60*s.Match)
	}
	if a0.BStart < a1.BEnd && a1.BStart < a0.BEnd {
		t.Errorf("HSPs overlap in subject: [%d,%d) and [%d,%d)", a0.BStart, a0.BEnd, a1.BStart, a1.BEnd)
	}
}

func TestLocalAllRespectsLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	s := DefaultScoring()
	domain := randomSeq(rng, 40)
	var b []byte
	for i := 0; i < 4; i++ {
		b = append(b, domain...)
		b = append(b, randomSeq(rng, 30)...)
	}
	if got := LocalAll(domain, b, s, 1, 2); len(got) != 2 {
		t.Errorf("max=2 returned %d HSPs", len(got))
	}
	// A threshold above the perfect score returns nothing.
	if got := LocalAll(domain, b, s, 40*s.Match+1, 10); len(got) != 0 {
		t.Errorf("unreachable threshold returned %d HSPs", len(got))
	}
}

func TestLocalAllDegenerate(t *testing.T) {
	s := DefaultScoring()
	if got := LocalAll(nil, seqOf("ACGT"), s, 1, 3); got != nil {
		t.Errorf("empty query returned %v", got)
	}
	if got := LocalAll(seqOf("ACGT"), seqOf("ACGT"), s, 1, 0); got != nil {
		t.Errorf("max=0 returned %v", got)
	}
	if got := LocalAll(seqOf("AAAA"), seqOf("TTTT"), s, 1, 3); len(got) != 0 {
		t.Errorf("no-match pair returned %d HSPs", len(got))
	}
}

func TestMaskedNeverMatches(t *testing.T) {
	s := DefaultScoring()
	if s.Score(Masked, Masked) != -s.Mismatch {
		t.Error("Masked matches itself")
	}
	for c := byte(0); c < 15; c++ {
		if s.Score(Masked, c) != -s.Mismatch || s.Score(c, Masked) != -s.Mismatch {
			t.Fatalf("Masked matches code %d", c)
		}
	}
}

func TestLocalAllTranscriptsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	s := DefaultScoring()
	for trial := 0; trial < 20; trial++ {
		a := randomSeq(rng, 50+rng.Intn(50))
		b := randomSeq(rng, 100+rng.Intn(100))
		// Embed a into b to guarantee at least one strong HSP.
		at := rng.Intn(len(b) - 10)
		copy(b[at:], a[:min(len(a), len(b)-at)])
		for _, al := range LocalAll(a, b, s, 30, 3) {
			// The transcript replays against the ORIGINAL b only if it
			// avoided masked regions; first HSP always does.
			if al.BEnd > len(b) || al.AEnd > len(a) {
				t.Fatalf("spans out of range: %+v", al)
			}
		}
	}
}

package align

import (
	"math"
	"math/rand"
	"testing"
)

// TestValidateBoundsScores: Validate refuses a Match, a Mismatch or a
// GapOpen+GapExtend of 2^30 or more, which the int32 kernels wrap — at
// Match 2^31 an identical pair scored 0, at GapOpen 2^31−1 it scored
// 2^31−1 — and accepts each just below.
func TestValidateBoundsScores(t *testing.T) {
	for _, c := range []struct {
		s  Scoring
		ok bool
	}{
		{Scoring{Match: math.MaxInt32, Mismatch: 4, GapOpen: 10, GapExtend: 2}, false},
		{Scoring{Match: 5, Mismatch: 4, GapOpen: math.MaxInt32, GapExtend: 2}, false},
		{Scoring{Match: 1 << 30, Mismatch: 4, GapOpen: 10, GapExtend: 2}, false},
		{Scoring{Match: 5, Mismatch: 1 << 30, GapOpen: 10, GapExtend: 2}, false},
		{Scoring{Match: 5, Mismatch: 4, GapOpen: 1<<30 - 2, GapExtend: 2}, false},
		{Scoring{Match: 5, Mismatch: 4, GapOpen: 0, GapExtend: 1 << 30}, false},
		{Scoring{Match: 5, Mismatch: 4, GapOpen: math.MaxInt32, GapExtend: math.MaxInt32}, false},
		{Scoring{Match: 1<<30 - 1, Mismatch: 1<<30 - 1, GapOpen: 1<<30 - 3, GapExtend: 2}, true},
	} {
		if err := c.s.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate = %v, want ok %v", c.s, err, c.ok)
		}
	}
}

// TestFitsQueryBoundsScores: at Match 2^29 an 8-base identical pair
// would score 2^32, which the kernels wrapped to 2^31−24; FitsQuery
// refuses it. At Match 2^27 a query of 14 bases fits, 14·2^27 + 2^27 +
// 3 < 2^31, and both kernels score its self-match exactly on every
// route; 15 bases do not fit.
func TestFitsQueryBoundsScores(t *testing.T) {
	if (Scoring{Match: 1 << 29, Mismatch: 1, GapOpen: 1, GapExtend: 1}).FitsQuery(8) {
		t.Fatal("an 8-base query fits at Match 2^29")
	}
	s := Scoring{Match: 1 << 27, Mismatch: 1, GapOpen: 1, GapExtend: 1}
	if !s.FitsQuery(14) || s.FitsQuery(15) {
		t.Fatalf("Match 2^27: FitsQuery(14) = %v, FitsQuery(15) = %v; want true, false", s.FitsQuery(14), s.FitsQuery(15))
	}
	a := randomSeq(rand.New(rand.NewSource(1410)), 14)
	sub := NewSubst(s)
	sc := routedScratch(t)
	const want = 14 << 27
	if score, _, _ := sub.BandedLocalScore(a, a, 0, 3, sc); score != want {
		t.Fatalf("BandedLocalScore = %d, want %d", score, want)
	}
	if al := sub.Local(a, a, sc); al.Score != want || len(al.Ops) != len(a) {
		t.Fatalf("Local = %d over %d columns, want %d over %d", al.Score, len(al.Ops), want, len(a))
	}
	checkBandedAgainstRef(t, sub, sc, a, a, 0, 3)
}

package align

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"nucleodb/internal/dna"
)

// refLocalScore is an O(n·m) reference Smith–Waterman with affine gaps
// implemented with explicit full matrices and no clamping tricks, for
// cross-checking the optimised versions.
func refLocalScore(a, b []byte, s Scoring) int {
	score, _, _ := refBestColumns(a, b, s)
	return score
}

func seqOf(s string) []byte { return dna.MustEncode(s) }

func TestLocalScoreKnownCases(t *testing.T) {
	s := DefaultScoring()
	cases := []struct {
		a, b string
		want int
	}{
		{"", "ACGT", 0},
		{"ACGT", "", 0},
		{"ACGT", "ACGT", 20},                // perfect match ×4
		{"AAAA", "TTTT", 0},                 // nothing aligns
		{"ACGT", "TACGTT", 20},              // embedded match
		{"ACGTACGT", "ACGT", 20},            // subject shorter
		{"AACGTACGTAA", "CCACGTACGTCC", 40}, // 8-base core, mismatched flanks
	}
	for _, c := range cases {
		got, _, _ := LocalScore(seqOf(c.a), seqOf(c.b), s)
		if got != c.want {
			t.Errorf("LocalScore(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if ref := refLocalScore(seqOf(c.a), seqOf(c.b), s); got != ref {
			t.Errorf("LocalScore(%s,%s) = %d, reference %d", c.a, c.b, got, ref)
		}
	}
}

func TestLocalScoreEndPositions(t *testing.T) {
	s := DefaultScoring()
	// The best local alignment of ACGT inside TTACGTTT ends at a=4, b=6.
	score, aEnd, bEnd := LocalScore(seqOf("ACGT"), seqOf("TTACGTTT"), s)
	if score != 20 || aEnd != 4 || bEnd != 6 {
		t.Errorf("got score=%d aEnd=%d bEnd=%d, want 20,4,6", score, aEnd, bEnd)
	}
}

func TestLocalScoreMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	s := DefaultScoring()
	for trial := 0; trial < 50; trial++ {
		a := randomSeq(rng, 1+rng.Intn(60))
		b := randomSeq(rng, 1+rng.Intn(60))
		got, _, _ := LocalScore(a, b, s)
		want := refLocalScore(a, b, s)
		if got != want {
			t.Fatalf("trial %d: LocalScore = %d, reference %d\na=%s\nb=%s",
				trial, got, want, dna.String(a), dna.String(b))
		}
	}
}

func TestLocalTracebackConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := DefaultScoring()
	for trial := 0; trial < 100; trial++ {
		a := randomSeq(rng, 1+rng.Intn(80))
		b := randomSeq(rng, 1+rng.Intn(80))
		al := Local(a, b, s)
		want := refLocalScore(a, b, s)
		if al.Score != want {
			t.Fatalf("trial %d: Local score %d, reference %d", trial, al.Score, want)
		}
		if want == 0 {
			continue
		}
		checkTranscript(t, a, b, al, s)
	}
}

// checkTranscript replays the transcript and verifies spans, the match
// counter and that the recomputed score equals al.Score.
func checkTranscript(t *testing.T, a, b []byte, al Alignment, s Scoring) {
	t.Helper()
	i, j := al.AStart, al.BStart
	score := 0
	matches := 0
	inAGap, inBGap := false, false
	for _, o := range al.Ops {
		switch o {
		case OpMatch:
			sc := s.Score(a[i], b[j])
			score += sc
			if sc > 0 {
				matches++
			}
			i++
			j++
			inAGap, inBGap = false, false
		case OpAGap:
			if !inAGap {
				score -= s.GapOpen
			}
			score -= s.GapExtend
			j++
			inAGap, inBGap = true, false
		case OpBGap:
			if !inBGap {
				score -= s.GapOpen
			}
			score -= s.GapExtend
			i++
			inBGap, inAGap = true, false
		default:
			t.Fatalf("unknown op %c", o)
		}
	}
	if i != al.AEnd || j != al.BEnd {
		t.Fatalf("transcript ends at (%d,%d), spans say (%d,%d)", i, j, al.AEnd, al.BEnd)
	}
	if score != al.Score {
		t.Fatalf("transcript score %d != reported %d", score, al.Score)
	}
	if matches != al.Matches {
		t.Fatalf("%d matches, reported %d", matches, al.Matches)
	}
}

func TestLocalEmptyAndNoMatch(t *testing.T) {
	s := DefaultScoring()
	if al := Local(nil, seqOf("ACGT"), s); al.Score != 0 || len(al.Ops) != 0 {
		t.Errorf("empty query alignment = %+v", al)
	}
	if al := Local(seqOf("AAAA"), seqOf("TTTT"), s); al.Score != 0 {
		t.Errorf("no-match alignment = %+v", al)
	}
}

func TestLocalWildcardsAlign(t *testing.T) {
	s := DefaultScoring()
	al := Local(seqOf("ACNT"), seqOf("ACGT"), s)
	if al.Score != 20 {
		t.Errorf("N-containing alignment score %d, want 20", al.Score)
	}
	if al.Matches != 4 {
		t.Errorf("N column counted as mismatch: %+v", al)
	}
}

func TestLocalGapAlignment(t *testing.T) {
	s := DefaultScoring()
	// b has 2 bases deleted relative to a; optimal local alignment must
	// bridge them with one affine gap: 14 matches − (open+2·extend).
	a := seqOf("ACGTACGTACGTACGT")
	b := seqOf("ACGTACGACGTACGT") // one base deleted after 7
	al := Local(a, b, s)
	ref := refLocalScore(a, b, s)
	if al.Score != ref {
		t.Fatalf("score %d, reference %d", al.Score, ref)
	}
	if !gapped(al) {
		t.Errorf("expected a gapped alignment, got %+v", al)
	}
}

// gapped reports whether al's transcript has a gap column.
func gapped(al Alignment) bool {
	return bytes.ContainsAny(al.Ops, string([]byte{OpAGap, OpBGap}))
}

func TestIdentity(t *testing.T) {
	al := Alignment{}
	if al.Identity() != 0 {
		t.Error("identity of empty alignment not 0")
	}
	al = Alignment{Ops: []byte{OpMatch, OpMatch, OpAGap, OpMatch}, Matches: 3}
	if got := al.Identity(); got != 0.75 {
		t.Errorf("identity = %v, want 0.75", got)
	}
}

func randomSeq(rng *rand.Rand, n int) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(rng.Intn(dna.NumBases))
	}
	return s
}

func TestPropertyLocalScoreSymmetry(t *testing.T) {
	// Local alignment score is symmetric in its arguments.
	rng := rand.New(rand.NewSource(22))
	s := DefaultScoring()
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomSeq(local, 1+local.Intn(50))
		b := randomSeq(local, 1+local.Intn(50))
		sa, _, _ := LocalScore(a, b, s)
		sb, _, _ := LocalScore(b, a, s)
		return sa == sb
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertySelfAlignmentIsPerfect(t *testing.T) {
	s := DefaultScoring()
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		a := randomSeq(local, 1+local.Intn(100))
		score, _, _ := LocalScore(a, a, s)
		return score == len(a)*s.Match
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

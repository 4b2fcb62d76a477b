package align

import (
	"math/rand"
	"testing"

	"nucleodb/internal/dna"
)

// stripedScorings are the schemes the differential tests sweep: the
// headline parameters plus edit-distance-like, zero-mismatch (every
// substitution scores +Match or 0), zero-open (linear gaps), and a
// cheap-gap scheme that makes gap-gap corners (the lazy-F/E coupling
// the kernel must reproduce exactly) optimal wherever possible.
var stripedScorings = []Scoring{
	DefaultScoring(),
	{Match: 1, Mismatch: 1, GapOpen: 0, GapExtend: 1},
	{Match: 5, Mismatch: 0, GapOpen: 2, GapExtend: 1},
	{Match: 2, Mismatch: 7, GapOpen: 0, GapExtend: 1},
	{Match: 9, Mismatch: 50, GapOpen: 1, GapExtend: 1},
}

// randCodes returns a random code sequence of length n over the full
// code space (bases plus wildcards) with occasional junk bytes.
func randCodes(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		switch r := rng.Intn(20); {
		case r < 14:
			out[i] = byte(rng.Intn(int(dna.NumBases)))
		case r < 18:
			out[i] = byte(dna.NumBases + rng.Intn(int(dna.NumCodes-dna.NumBases)))
		default:
			out[i] = byte(rng.Intn(256)) // junk, incl. Masked
		}
	}
	return out
}

// refBestColumns is the brute-force oracle of the striped hand-over:
// full H/E/F matrices with no clamping tricks (refLocalScore's), then
// every subject column holding a cell of the best score. It returns that
// score, the (exclusive) end of the first such column and whether it is
// the only one.
func refBestColumns(a, b []byte, s Scoring) (score, bEnd int, unique bool) {
	const negInf = -(1 << 28)
	n, m := len(a), len(b)
	H := make([][]int, n+1)
	E := make([][]int, n+1)
	F := make([][]int, n+1)
	for i := range H {
		H[i] = make([]int, m+1)
		E[i] = make([]int, m+1)
		F[i] = make([]int, m+1)
		for j := range E[i] {
			E[i][j] = negInf
			F[i][j] = negInf
		}
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			E[i][j] = max(E[i-1][j]-s.GapExtend, H[i-1][j]-s.GapOpen-s.GapExtend)
			F[i][j] = max(F[i][j-1]-s.GapExtend, H[i][j-1]-s.GapOpen-s.GapExtend)
			H[i][j] = max(0, H[i-1][j-1]+s.Score(a[i-1], b[j-1]), E[i][j], F[i][j])
			score = max(score, H[i][j])
		}
	}
	if score == 0 {
		return 0, 0, false
	}
	var cols []int
	for j := 1; j <= m; j++ {
		for i := 1; i <= n; i++ {
			if H[i][j] == score {
				cols = append(cols, j)
				break
			}
		}
	}
	return score, cols[0], len(cols) == 1
}

// checkStripedHandover requires p.Score(b) to report the brute-force
// (score, first best column, unique) of query a — the profile's —
// against b. The scratch is the caller's, reused dirty across calls.
func checkStripedHandover(t testing.TB, p *StripedProfile, sc *StripedScratch, a, b []byte, s Scoring) {
	t.Helper()
	wScore, wEnd, wUnique := refBestColumns(a, b, s)
	score, bEnd, unique, ok := p.Score(b, sc)
	if !ok {
		t.Fatalf("kernel refused len %d×%d under %+v", len(a), len(b), s)
	}
	if score != wScore || bEnd != wEnd || unique != wUnique {
		t.Fatalf("%+v: striped (score %d, column %d, unique %v), brute force (%d, %d, %v)\n a=%v\n b=%v",
			s, score, bEnd, unique, wScore, wEnd, wUnique, a, b)
	}
}

// TestStripedMatchesLocalScoreRandom is the randomized differential
// test: the bitvector kernel must return bit-identical scores to the
// scalar LocalScore across lengths, alphabets and scoring schemes, and
// the brute-force end column and uniqueness with them. One scratch
// serves every call, dirty from the last.
func TestStripedMatchesLocalScoreRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var sc StripedScratch
	for si, s := range stripedScorings {
		for trial := 0; trial < 300; trial++ {
			a := randCodes(rng, 1+rng.Intn(120))
			b := randCodes(rng, 1+rng.Intn(200))
			want, _, _ := LocalScore(a, b, s)
			got, ok := StripedLocalScore(a, b, s)
			if !ok {
				t.Fatalf("scoring %d trial %d: kernel refused len %d×%d", si, trial, len(a), len(b))
			}
			if got != want {
				t.Fatalf("scoring %d trial %d (%v): striped %d != scalar %d\n a=%v\n b=%v",
					si, trial, s, got, want, a, b)
			}
			checkStripedHandover(t, NewStripedProfile(a, s), &sc, a, b, s)
		}
	}
}

// TestStripedHandoverTiesAndLazyF aims the hand-over at what random
// full-alphabet pairs rarely produce. Two-letter sequences tie
// constantly, so "unique" is false about as often as true; gaps nearly
// free make the lazy-F loop (a gap in the subject crossing a stripe
// boundary) run in most columns and raise cells there, and those cells
// feed the column maximum the ≥-test looks at. A cell raised by lazy-F
// sits below the cell its gap opened from, in the same column, so it can
// never be the column's best — which is exactly what checking every
// subject prefix, where each column is the last for once, would catch if
// the kernel got it wrong.
func TestStripedHandoverTiesAndLazyF(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cheapGaps := Scoring{Match: 9, Mismatch: 50, GapOpen: 1, GapExtend: 1}
	var sc StripedScratch
	ties, lazy := 0, 0
	for trial := 0; trial < 60; trial++ {
		a, b := make([]byte, 9+rng.Intn(40)), make([]byte, 1+rng.Intn(60))
		for i := range a {
			a[i] = byte(rng.Intn(2))
		}
		for i := range b {
			b[i] = byte(rng.Intn(2))
		}
		for _, s := range []Scoring{DefaultScoring(), cheapGaps} {
			p := NewStripedProfile(a, s)
			for k := 1; k <= len(b); k++ {
				checkStripedHandover(t, p, &sc, a, b[:k], s)
				if score, _, unique := refBestColumns(a, b[:k], s); score > 0 && !unique {
					ties++
				}
			}
			if s == cheapGaps {
				// A perfect copy of the query with its middle third cut
				// out: the optimal alignment bridges the cut with one gap
				// in the subject that spans a stripe boundary.
				cut := append(append([]byte(nil), a[:len(a)/3]...), a[2*len(a)/3:]...)
				checkStripedHandover(t, p, &sc, a, cut, s)
				if al := Local(a, cut, s); al.Gaps > 0 {
					lazy++
				}
			}
		}
	}
	if ties < 200 || lazy < 20 {
		t.Fatalf("fixture too tame: %d tied prefixes, %d gapped bridges", ties, lazy)
	}
}

// TestStripedProfileReuseAcrossSubjects locks in the pooled-profile
// contract: one profile scored against many subjects with a reused
// scratch must equal fresh one-shot evaluations.
func TestStripedProfileReuseAcrossSubjects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := DefaultScoring()
	var sc StripedScratch
	p := &StripedProfile{}
	for q := 0; q < 10; q++ {
		query := randCodes(rng, 3+rng.Intn(90))
		p.Build(query, s)
		for j := 0; j < 20; j++ {
			subject := randCodes(rng, 1+rng.Intn(150))
			want, _, _ := LocalScore(query, subject, s)
			got, _, _, ok := p.Score(subject, &sc)
			if !ok || got != want {
				t.Fatalf("query %d subject %d: got (%d,%v), want %d", q, j, got, ok, want)
			}
			checkStripedHandover(t, p, &sc, query, subject, s)
		}
	}
}

// enumerate appends every sequence over alphabet of length 1..maxLen.
func enumerate(alphabet []byte, maxLen int) [][]byte {
	var out [][]byte
	var cur []byte
	var rec func(depth int)
	rec = func(depth int) {
		if depth > 0 {
			out = append(out, append([]byte(nil), cur...))
		}
		if depth == maxLen {
			return
		}
		for _, c := range alphabet {
			cur = append(cur, c)
			rec(depth + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
	return out
}

// TestStripedExhaustiveSmallAlphabet sweeps every query/target pair up
// to a length bound: all pairs over {A,C} to length 7 (65k pairs, where
// stripe counts 1–2 and every padding shape occur) and all pairs over
// {A,C,G,N} to length 3 under two scorings. Exhaustive, so any lane
// bookkeeping error that randomized trials might miss is pinned here —
// the score against LocalScore, and the end column and its uniqueness
// against the brute-force list of best columns (two-letter pairs tie in
// most cases, so both values of unique are swept).
func TestStripedExhaustiveSmallAlphabet(t *testing.T) {
	binary := enumerate([]byte{dna.BaseA, dna.BaseC}, 7)
	wild := enumerate([]byte{dna.BaseA, dna.BaseC, dna.BaseG, dna.WildN}, 3)
	var sc StripedScratch
	check := func(pairsA, pairsB [][]byte, s Scoring) {
		t.Helper()
		for _, a := range pairsA {
			p := NewStripedProfile(a, s)
			for _, b := range pairsB {
				want, _, _ := LocalScore(a, b, s)
				got, ok := StripedLocalScore(a, b, s)
				if !ok || got != want {
					t.Fatalf("scoring %v: striped(%v,%v) = (%d,%v), scalar %d", s, a, b, got, ok, want)
				}
				checkStripedHandover(t, p, &sc, a, b, s)
			}
		}
	}
	check(binary, binary, DefaultScoring())
	check(wild, wild, DefaultScoring())
	check(wild, wild, Scoring{Match: 3, Mismatch: 1, GapOpen: 0, GapExtend: 1})
}

// TestStripedEdgeCases covers the degenerate inputs the fine phase can
// feed the kernel.
func TestStripedEdgeCases(t *testing.T) {
	s := DefaultScoring()

	// Empty sequences score 0, like LocalScore.
	if got, ok := StripedLocalScore(nil, []byte{0, 1, 2}, s); !ok || got != 0 {
		t.Fatalf("empty query: (%d,%v)", got, ok)
	}
	if got, ok := StripedLocalScore([]byte{0, 1, 2}, nil, s); !ok || got != 0 {
		t.Fatalf("empty subject: (%d,%v)", got, ok)
	}

	// All-N sequences: N matches everything, so the score is the full
	// ungapped run.
	n := make([]byte, 40)
	for i := range n {
		n[i] = dna.WildN
	}
	want, _, _ := LocalScore(n, n[:25], s)
	if got, ok := StripedLocalScore(n, n[:25], s); !ok || got != want {
		t.Fatalf("all-N: (%d,%v), want %d", got, ok, want)
	}

	// Masked bytes never match, including themselves.
	m := []byte{Masked, Masked, Masked, Masked, Masked}
	if got, ok := StripedLocalScore(m, m, s); !ok || got != 0 {
		t.Fatalf("masked: (%d,%v), want 0", got, ok)
	}

	// Every stripe-padding shape around the lane boundary, 1-base
	// queries included; the padding lanes must not reach the column
	// maximum either.
	rng := rand.New(rand.NewSource(3))
	var sc StripedScratch
	for la := 1; la <= 18; la++ {
		for trial := 0; trial < 8; trial++ {
			a := randCodes(rng, la)
			b := randCodes(rng, 33)
			want, _, _ := LocalScore(a, b, s)
			if got, ok := StripedLocalScore(a, b, s); !ok || got != want {
				t.Fatalf("len %d: (%d,%v), want %d", la, got, ok, want)
			}
			checkStripedHandover(t, NewStripedProfile(a, s), &sc, a, b, s)
		}
	}
}

// TestStripedCapacityRefusal: pairs whose score bound could overflow a
// lane must be refused (the core fine phase then falls back to the
// scalar kernel), and the refusal must key on min(query, subject).
func TestStripedCapacityRefusal(t *testing.T) {
	huge := Scoring{Match: 20000, Mismatch: 1, GapOpen: 1, GapExtend: 1}
	a := []byte{0, 1, 2, 3}
	if _, ok := StripedLocalScore(a, a, huge); ok {
		t.Fatal("kernel accepted a scoring whose single match overflows a lane")
	}

	s := DefaultScoring()
	long := make([]byte, 8000) // 8000×5 > 0x7FFF: too big when both sides are long
	p := NewStripedProfile(long, s)
	if p.Supports(len(long)) {
		t.Fatal("kernel accepted min-length 8000 at Match=5")
	}
	// ...but the same long query against a short subject fits (the
	// subject bounds the score).
	if !p.Supports(100) {
		t.Fatal("kernel refused a short subject against a long query")
	}
	short := randCodes(rand.New(rand.NewSource(9)), 100)
	var sc StripedScratch
	want, _, _ := LocalScore(long, short, s)
	if got, _, _, ok := p.Score(short, &sc); !ok || got != want {
		t.Fatalf("long×short: (%d,%v), want %d", got, ok, want)
	}
}

// TestLanePrimitives pins the SWAR building blocks against per-lane
// reference arithmetic.
func TestLanePrimitives(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20000; trial++ {
		var x, y uint64
		var wantSub, wantMax uint64
		for l := 0; l < bvLanes; l++ {
			xv := uint64(rng.Intn(laneCap + 1))
			yv := uint64(rng.Intn(laneCap + 1))
			x |= xv << (bvLaneBits * l)
			y |= yv << (bvLaneBits * l)
			var sub uint64
			if xv > yv {
				sub = xv - yv
			}
			mx := xv
			if yv > mx {
				mx = yv
			}
			wantSub |= sub << (bvLaneBits * l)
			wantMax |= mx << (bvLaneBits * l)
		}
		if got := laneSubSat(x, y); got != wantSub {
			t.Fatalf("laneSubSat(%#x, %#x) = %#x, want %#x", x, y, got, wantSub)
		}
		if got := laneMax(x, y); got != wantMax {
			t.Fatalf("laneMax(%#x, %#x) = %#x, want %#x", x, y, got, wantMax)
		}
	}
}

// BenchmarkFineKernels compares the scalar and bitvector score kernels
// on the fine phase's typical shape (400-base query, ~900-base
// candidate), and — on BenchmarkBandedKernels' 600 × 8 000 pair — the
// two ways to the exact transcript once the score pass is done: the
// frozen full-matrix traceback and the strip LocalEndingAt traces from
// the end column. MB/s reads as nominal full-matrix cells per µs.
func BenchmarkFineKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	query := randCodes(rng, 400)
	subject := randCodes(rng, 900)
	s := DefaultScoring()
	b.Run("scalar", func(b *testing.B) {
		b.SetBytes(int64(len(query)) * int64(len(subject)))
		for i := 0; i < b.N; i++ {
			LocalScore(query, subject, s)
		}
	})
	b.Run("bitvector", func(b *testing.B) {
		p := NewStripedProfile(query, s)
		var sc StripedScratch
		b.SetBytes(int64(len(query)) * int64(len(subject)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Score(subject, &sc)
		}
	})

	rng = rand.New(rand.NewSource(2))
	subject = randomSeq(rng, 8000)
	query = mutate(rng, subject[3000:3600], 0.1)
	sub := NewSubst(s)
	var sc BandedScratch
	var bv StripedScratch
	score, bEnd, unique, _ := NewStripedProfile(query, s).Score(subject, &bv)
	if !unique {
		b.Fatal("fixture ties: the column hand-over needs a unique end column")
	}
	b.Run("traceback-refLocal", func(b *testing.B) {
		b.SetBytes(LocalCells(len(query), len(subject)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			refLocal(sub, query, subject)
		}
	})
	b.Run("traceback-strip", func(b *testing.B) {
		b.SetBytes(LocalCells(len(query), len(subject)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sub.LocalEndingAt(query, subject, score, 0, bEnd, &sc)
		}
	})
}

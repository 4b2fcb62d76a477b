package align

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleodb/internal/dna"
)

// stripedScorings are the schemes the differential tests sweep: the
// headline parameters plus edit-distance-like, zero-mismatch (every
// substitution scores +Match or 0), zero-open (linear gaps), and a
// cheap-gap scheme that makes gap-gap corners optimal wherever
// possible (the correction sweep does not re-feed E from the cells it
// raises, and these schemes check that no score needed it).
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

// refDP returns the brute-force H, E and F matrices of a against b under
// s, with no clamping tricks (refLocalScore's recurrences). Row i is
// query position i−1, column j subject position j−1; row and column 0
// are the boundary. E is the gap in the subject, running down a column
// (the kernel's F), F the gap in the query, running along a row.
func refDP(a, b []byte, s Scoring) (H, E, F [][]int) {
	const negInf = -(1 << 28)
	n, m := len(a), len(b)
	H = make([][]int, n+1)
	E = make([][]int, n+1)
	F = make([][]int, n+1)
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
		}
	}
	return H, E, F
}

// columnBests returns the best cell of every column of H: column j's at
// index j, 0 at index 0.
func columnBests(H [][]int) []int {
	bests := make([]int, len(H[0]))
	for _, row := range H {
		for j, v := range row {
			bests[j] = max(bests[j], v)
		}
	}
	return bests
}

// refBestColumns is the brute-force oracle of the striped hand-over:
// full matrices, then every subject column holding a cell of the best
// score. It returns that score, the (exclusive) end of the first such
// column and whether it is the only one.
func refBestColumns(a, b []byte, s Scoring) (score, bEnd int, unique bool) {
	H, _, _ := refDP(a, b, s)
	return bestColumns(columnBests(H))
}

// bestColumns returns the best of the column bests (as columnBests gives
// them), the end of the first column holding it and whether it is the
// only one.
func bestColumns(bests []int) (score, bEnd int, unique bool) {
	score = slices.Max(bests)
	if score == 0 {
		return 0, 0, false
	}
	bEnd = slices.Index(bests, score)
	return score, bEnd, slices.Index(bests[bEnd+1:], score) < 0
}

// stripedRoutes are the routes the striped suites hold to each other:
// the uint64 route always, and the AVX2 route whenever this CPU has it.
func stripedRoutes() []route {
	if r, ok := vectorRoute(); ok {
		return []route{swar, r}
	}
	return []route{swar}
}

// routedProfile is one query's striped profile on every route. Its
// Score scores a subject on each, requires them all to agree, and
// returns the common answer.
type routedProfile struct {
	t  testing.TB
	ps []*StripedProfile
}

// newRoutedProfile builds the profile of query q under s on every route.
func newRoutedProfile(t testing.TB, q []byte, s Scoring) *routedProfile {
	rp := &routedProfile{t: t}
	for range stripedRoutes() {
		rp.ps = append(rp.ps, &StripedProfile{})
	}
	rp.Build(q, s)
	return rp
}

// Build rebuilds every route's profile for query q, reusing them.
func (rp *routedProfile) Build(q []byte, s Scoring) {
	for i, r := range stripedRoutes() {
		rp.ps[i].build(q, s, r)
	}
}

// Supports is every route's Supports, which must agree.
func (rp *routedProfile) Supports(lb int) bool {
	rp.t.Helper()
	want := rp.ps[0].Supports(lb)
	for i, p := range rp.ps[1:] {
		if p.Supports(lb) != want {
			rp.t.Fatalf("Supports(%d): %s route %v, %s route %v", lb, stripedRoutes()[i+1].name, !want, swar.name, want)
		}
	}
	return want
}

// Score scores b on every route through the one scratch sc, each dirty
// from the last, and requires every route to return the uint64 route's
// (score, bEnd, unique, ok) and to widen after the same column; sc is
// left as the last route's call left it.
func (rp *routedProfile) Score(b []byte, sc *StripedScratch) (score, bEnd int, unique, ok bool) {
	rp.t.Helper()
	score, bEnd, unique, ok = rp.ps[0].Score(b, sc)
	widened := sc.widenedAt
	for i, p := range rp.ps[1:] {
		vScore, vEnd, vUnique, vOK := p.Score(b, sc)
		if vScore != score || vEnd != bEnd || vUnique != unique || vOK != ok || sc.widenedAt != widened {
			rp.t.Fatalf("%s route (score %d, column %d, unique %v, ok %v, widened after %d), %s route (%d, %d, %v, %v, %d)\n b=%v",
				stripedRoutes()[i+1].name, vScore, vEnd, vUnique, vOK, sc.widenedAt, swar.name, score, bEnd, unique, ok, widened, b)
		}
	}
	return score, bEnd, unique, ok
}

// checkStripedHandover requires p.Score(b) to report, on every route,
// the brute-force (score, first best column, unique) of query a — the
// profile's — against b and the frozen 16-bit kernel's answer, and to
// widen from byte lanes right after the first column whose best exceeds
// the byte headroom, unless that column is the last. The scratch is the
// caller's, reused dirty across calls.
func checkStripedHandover(t testing.TB, p *routedProfile, sc *StripedScratch, a, b []byte, s Scoring) {
	t.Helper()
	H, _, _ := refDP(a, b, s)
	checkStripedBests(t, p, sc, a, b, s, columnBests(H))
}

// checkStripedBests is checkStripedHandover against the brute-force
// column bests of a against b, as columnBests gives them.
func checkStripedBests(t testing.TB, p *routedProfile, sc *StripedScratch, a, b []byte, s Scoring, bests []int) {
	t.Helper()
	wScore, wEnd, wUnique := bestColumns(bests)
	wWiden := -1
	if past := firstPast(bests, byteHeadroom(s)); past > 0 && past < len(b) {
		wWiden = past
	}
	score, bEnd, unique, ok := p.Score(b, sc)
	if !ok {
		t.Fatalf("kernel refused len %d×%d under %+v", len(a), len(b), s)
	}
	if score != wScore || bEnd != wEnd || unique != wUnique || sc.widenedAt != wWiden {
		t.Fatalf("%+v: striped (score %d, column %d, unique %v, widened after %d), brute force (%d, %d, %v, %d)\n a=%v\n b=%v",
			s, score, bEnd, unique, sc.widenedAt, wScore, wEnd, wUnique, wWiden, a, b)
	}
	if rScore, rEnd, rUnique, rOK := refStripedScore(a, b, s); score != rScore || bEnd != rEnd || unique != rUnique || !rOK {
		t.Fatalf("%+v: striped (score %d, column %d, unique %v), frozen 16-bit kernel (%d, %d, %v, ok %v)\n a=%v\n b=%v",
			s, score, bEnd, unique, rScore, rEnd, rUnique, rOK, a, b)
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
			checkStripedHandover(t, newRoutedProfile(t, a, s), &sc, a, b, s)
		}
	}
}

// TestStripedHandoverTiesAndLazyF aims the hand-over at what random
// full-alphabet pairs rarely produce. Two-letter sequences tie
// constantly, so "unique" is false about as often as true; gaps nearly
// free make a gap in the subject cross a stripe boundary in most
// columns (what the lazy-F loop of the name carried, and the cross-lane
// scan carries now), so the correction sweep raises cells there, and
// those cells feed the column maximum the ≥-test looks at. A cell raised
// by the sweep sits below the cell its gap opened from, in the same
// column, so it can never be the column's best — which is exactly what
// checking every subject prefix, where each column is the last for once,
// would catch if the kernel got it wrong.
func TestStripedHandoverTiesAndLazyF(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cheapGaps := Scoring{Match: 9, Mismatch: 50, GapOpen: 1, GapExtend: 1}
	var sc StripedScratch
	ties, bridges := 0, 0
	for trial := 0; trial < 60; trial++ {
		a, b := make([]byte, 9+rng.Intn(40)), make([]byte, 1+rng.Intn(60))
		for i := range a {
			a[i] = byte(rng.Intn(2))
		}
		for i := range b {
			b[i] = byte(rng.Intn(2))
		}
		for _, s := range []Scoring{DefaultScoring(), cheapGaps} {
			p := newRoutedProfile(t, a, s)
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
				if al := Local(a, cut, s); gapped(al) {
					bridges++
				}
			}
		}
	}
	if ties < 200 || bridges < 20 {
		t.Fatalf("fixture too tame: %d tied prefixes, %d gapped bridges", ties, bridges)
	}
}

// crossings is what crossLaneDP finds a fixture's gaps in the subject
// to do in the AVX2 layouts: raise a cell in the byte layout's high
// 128-bit half (lanes 16–31) from a row in its low half, do the same
// across the word layout's halves (lanes 0–7, 8–15) in a column that
// runs in word lanes, and cross two byte lanes or more, which takes the
// scan's steps.
type crossings struct{ byteHalf, wordHalf, multi bool }

// crossLaneDP is the brute force in linear space, column by column as
// the kernel runs, for queries too long for refDP's matrices: it returns
// every column's best cell (as columnBests gives them) and what the
// fixture's gaps cross. A gap in the subject runs down a column; the
// cell it raises counts when the gap alone sets its value and, opened as
// late as possible, leaves from a query row of another lane.
func crossLaneDP(a, b []byte, s Scoring) (bests []int, x crossings) {
	const negInf = -(1 << 28)
	n := len(a)
	seg8, seg16 := (n+31)/32, (n+15)/16 // vectors a column of the AVX2 layouts
	top := byteHeadroom(s)
	sub := NewSubst(s)
	hPrev, fPrev := make([]int, n+1), make([]int, n+1) // column j−1: H, and the gap in the query
	hCur, fCur := make([]int, n+1), make([]int, n+1)
	for i := range fPrev {
		fPrev[i] = negInf
	}
	bests = make([]int, len(b)+1)
	words := top == 0 // this column runs in word lanes
	for j := 1; j <= len(b); j++ {
		e, from := negInf, 0 // the gap in the subject entering row i, and the row it opened below
		for i := 1; i <= n; i++ {
			if open := hCur[i-1] - s.GapOpen - s.GapExtend; open >= e-s.GapExtend {
				e, from = open, i-1
			} else {
				e -= s.GapExtend
			}
			fCur[i] = max(fPrev[i]-s.GapExtend, hPrev[i]-s.GapOpen-s.GapExtend)
			diag := hPrev[i-1] + int(sub.row(a[i-1])[b[j-1]])
			hCur[i] = max(0, diag, e, fCur[i])
			bests[j] = max(bests[j], hCur[i])
			if from > 0 && e > max(0, diag, fCur[i]) {
				src, dst := from-1, i-1 // query positions
				x.byteHalf = x.byteHalf || src/seg8 < 16 && dst/seg8 >= 16
				x.wordHalf = x.wordHalf || words && src/seg16 < 8 && dst/seg16 >= 8
				x.multi = x.multi || dst/seg8-src/seg8 >= 2
			}
		}
		words = words || bests[j] > top
		hPrev, hCur, fPrev, fCur = hCur, hPrev, fCur, fPrev
	}
	return bests, x
}

// TestStripedCrossLaneGaps aims the cross-lane scan of F at gaps in the
// subject that cross stripe boundaries: each fixture is a homolog of up
// to 400 query bases with a piece of 1 to 3·segLen bases cut out (segLen
// of the AVX2 byte layout), the cut placed over a lane boundary — the
// first and last of the byte layout, and the middle of each layout,
// where the AVX2 scan carries F from the low 128-bit half into the high
// one (byte lane 15→16, word lane 7→8) and the uint64 route from the low
// half of a word into the high one. Query lengths straddle the byte
// layout's 32 lanes (160 fills them, 161 pads them) up to a long query,
// under the default scoring, free gap opens, and a gap extension so dear
// that the byte scan's first step would decay a lane to nothing (the
// byte profiles then keep no step, and the scan is the one-lane shift
// alone). Every route must answer as the brute force and the frozen
// 16-bit kernel do, and widen after the same column.
func TestStripedCrossLaneGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var sc StripedScratch
	var seen crossings
	saturated := 0
	for _, n := range []int{150, 160, 161, 512, 2000} {
		seg8 := (n + 31) / 32
		dear := Scoring{Match: 5, Mismatch: 4, GapOpen: 3, GapExtend: (laneCap[uint8]() + seg8 - 1) / seg8}
		var bounds []int
		for _, at := range []int{seg8, 16 * seg8, 31 * seg8, 8 * ((n + 15) / 16), 4 * ((n + 7) / 8), 2 * ((n + 3) / 4)} {
			if at < n-1 && !slices.Contains(bounds, at) {
				bounds = append(bounds, at)
			}
		}
		lens := []int{1, 2, seg8 - 1, seg8, seg8 + 1, 2 * seg8, 3 * seg8}
		a := randomSeq(rng, n)
		for _, s := range []Scoring{DefaultScoring(), {Match: 5, Mismatch: 4, GapOpen: 0, GapExtend: 2}, dear} {
			p := newRoutedProfile(t, a, s)
			for _, rp := range p.ps {
				if s == dear && len(rp.narrow.decay) == 0 {
					saturated++
				}
			}
			for _, at := range bounds {
				for _, l := range lens {
					// The cut [from, from+l) holds position at, so the gap
					// leaves from a row below the boundary and lands above it.
					from := max(1, at-rng.Intn(l))
					if from+l > n {
						continue
					}
					// The homolog spans at most 200 query bases each side
					// of the cut, which keeps the long queries' brute force
					// small.
					b := append(randomSeq(rng, 30), a[max(0, from-200):from]...)
					b = append(append(b, a[from+l:min(n, from+l+200)]...), randomSeq(rng, 30)...)
					bests, x := crossLaneDP(a, b, s)
					seen.byteHalf = seen.byteHalf || x.byteHalf
					seen.wordHalf = seen.wordHalf || x.wordHalf
					seen.multi = seen.multi || x.multi
					checkStripedBests(t, p, &sc, a, b, s, bests)
				}
			}
		}
	}
	if !seen.byteHalf || !seen.wordHalf || !seen.multi || saturated == 0 {
		t.Fatalf("fixture too tame: crossings %+v, %d byte profiles without a scan step under the dear gaps", seen, saturated)
	}
}

// TestStripedProfileReuseAcrossSubjects locks in the pooled-profile
// contract: one profile scored against many subjects with a reused
// scratch must equal fresh one-shot evaluations.
func TestStripedProfileReuseAcrossSubjects(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := DefaultScoring()
	var sc StripedScratch
	p := newRoutedProfile(t, nil, s)
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
			p := newRoutedProfile(t, a, s)
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
			checkStripedHandover(t, newRoutedProfile(t, a, s), &sc, a, b, s)
		}
	}

	// Query lengths on both sides of every lane count (4 and 8 lanes a
	// uint64, 16 and 32 a YMM register), the served read length and a
	// long query, against a random subject and against one with a mutated
	// piece of the query planted in it, which widens the pair.
	for _, la := range []int{1, 15, 16, 17, 31, 32, 33, 150, 2000} {
		a := randomSeq(rng, la)
		p := newRoutedProfile(t, a, s)
		piece := a
		if la > 300 {
			piece = a[la/4 : la/4+300]
		}
		homolog := append(append(randomSeq(rng, 40), mutate(rng, piece, 0.1)...), randomSeq(rng, 40)...)
		for _, b := range [][]byte{randCodes(rng, 200), homolog} {
			checkStripedHandover(t, p, &sc, a, b, s)
		}
	}
}

// TestStripedScoreAllocs: with a warm scratch, Score allocates nothing
// on any route, across a widening too.
func TestStripedScoreAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomSeq(rng, 150)
	b := append(append(randomSeq(rng, 2000), mutate(rng, a, 0.05)...), randomSeq(rng, 2000)...)
	for _, r := range stripedRoutes() {
		var p StripedProfile
		p.build(a, DefaultScoring(), r)
		var sc StripedScratch
		if p.Score(b, &sc); sc.widenedAt < 0 {
			t.Fatal("fixture does not widen")
		}
		if n := testing.AllocsPerRun(20, func() { p.Score(b, &sc) }); n != 0 {
			t.Fatalf("%s route: Score allocates %v times a call", r.name, n)
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
	p := newRoutedProfile(t, long, s)
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

// byteHeadroom is the largest column best whose next column the byte
// lanes hold under s, 127 − Match − Mismatch, or 0 when s starts in
// 16-bit lanes: no headroom, or gap penalties past a byte.
func byteHeadroom(s Scoring) int {
	top := laneCap[uint8]() - s.Match - s.Mismatch
	if top <= 0 || s.GapOpen+s.GapExtend > laneCap[uint8]() {
		return 0
	}
	return top
}

// firstPast returns the first column whose best (bests[j], as
// columnBests gives them) exceeds the byte headroom top, or 0.
func firstPast(bests []int, top int) int {
	if top == 0 {
		return 0
	}
	return max(slices.IndexFunc(bests, func(v int) bool { return v > top }), 0)
}

// checkWidening scores every prefix of b against p — query a's profile
// under s — so that each subject column is the last once, and holds
// each to the brute force, to the frozen 16-bit kernel, and to where the
// byte lanes must widen: right after the first column whose best
// exceeds 127 − Match − Mismatch, unless that column is the last. It
// returns that first column of b (0 if none) and how many prefixes
// finished in byte lanes, widened, and ran in 16-bit lanes alone.
func checkWidening(t *testing.T, p *routedProfile, sc *StripedScratch, a, b []byte, s Scoring) (past int, tiers [3]int) {
	t.Helper()
	top := byteHeadroom(s)
	for _, rp := range p.ps {
		if rp.narrowTop != top {
			t.Fatalf("%+v: byte headroom %d, want %d", s, rp.narrowTop, top)
		}
	}
	H, _, _ := refDP(a, b, s)
	bests := columnBests(H)
	past = firstPast(bests, top)
	var score, bEnd int
	var unique bool
	for k := 1; k <= len(b); k++ {
		switch {
		case bests[k] > score:
			score, bEnd, unique = bests[k], k, true
		case bests[k] == score && score > 0:
			unique = false
		}
		wantWiden := -1
		if past > 0 && past < k {
			wantWiden = past
		}
		gScore, gEnd, gUnique, ok := p.Score(b[:k], sc)
		if !ok || gScore != score || gEnd != bEnd || gUnique != unique || sc.widenedAt != wantWiden {
			t.Fatalf("%+v, %d × %d: striped (score %d, column %d, unique %v, ok %v, widened after %d), brute force (%d, %d, %v, widen after %d)\n a=%v\n b=%v",
				s, len(a), k, gScore, gEnd, gUnique, ok, sc.widenedAt, score, bEnd, unique, wantWiden, a, b[:k])
		}
		if rScore, rEnd, rUnique, _ := refStripedScore(a, b[:k], s); rScore != gScore || rEnd != gEnd || rUnique != gUnique {
			t.Fatalf("%+v, %d × %d: striped (%d, %d, %v), frozen 16-bit kernel (%d, %d, %v)", s, len(a), k, gScore, gEnd, gUnique, rScore, rEnd, rUnique)
		}
		switch {
		case top == 0:
			tiers[2]++
		case wantWiden > 0:
			tiers[1]++
		default:
			tiers[0]++
		}
	}
	return past, tiers
}

// crossOnly reports whether subject column j of the brute-force matrices
// holds a cell that only a gap in the subject crossing a stripe of the
// byte layout reaches: a cell whose value comes from that gap alone, and
// whose gap, even opened as late as possible, starts in another lane.
// The main loop carries the gap state within a lane only, so the byte
// kernel's cross-lane scan and correction sweep are what raise such a
// cell.
func crossOnly(a, b []byte, s Scoring, H, E, F [][]int, j int) bool {
	segLen := (len(a) + 7) / 8
	for i := 2; i <= len(a); i++ {
		diag := H[i-1][j-1] + s.Score(a[i-1], b[j-1])
		if H[i][j] != E[i][j] || H[i][j] <= max(0, diag, F[i][j]) {
			continue
		}
		r := i // walk the gap up to the row it opens below
		for E[r][j] != H[r-1][j]-s.GapOpen-s.GapExtend {
			r--
		}
		if (r-2)/segLen != (i-1)/segLen { // query positions r−2 → i−1
			return true
		}
	}
	return false
}

// TestStripedWidening aims at the byte lanes' hand-over to 16-bit lanes.
// Each fixture is checked on every subject prefix (checkWidening), so the
// column a pair widens after is, once each, the last column, the one
// before it and the one after. The fixtures reach the widening:
//   - after the first column: at Match 60 a single match passes the
//     47 points of byte headroom;
//   - at a column whose extra cells only the correction sweep raises: a
//     piece of the
//     query with a gap cut out right after the widening column, under
//     nearly free gaps, so the cells below the gap's start are raised
//     across a stripe boundary in exactly the column the H and E words
//     are re-striped from; and the same piece with subject bases
//     inserted there instead, so a gap in the query crosses the
//     widening in the E words;
//   - with every padding shape: queries of 1 to 40 bases, where ⌈n/8⌉ and
//     ⌈n/4⌉ words a column pad the two layouts differently, against a
//     mutated copy planted in random bases;
//   - from no byte lanes at all (Match 120 leaves a byte no headroom).
//
// One scratch serves every call, dirty from the last, so it alternates
// between the tiers and between query lengths.
func TestStripedWidening(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	first := Scoring{Match: 60, Mismatch: 20, GapOpen: 5, GapExtend: 3}
	cheapGaps := Scoring{Match: 9, Mismatch: 50, GapOpen: 1, GapExtend: 1}
	wide := Scoring{Match: 120, Mismatch: 10, GapOpen: 5, GapExtend: 2}
	var sc StripedScratch
	var tiers [3]int
	count := func(past int, prefixes [3]int) int {
		for i := range tiers {
			tiers[i] += prefixes[i]
		}
		return past
	}

	firsts := 0
	for trial := 0; trial < 40; trial++ {
		a := randomSeq(rng, 1+rng.Intn(30))
		b := append([]byte{a[rng.Intn(len(a))]}, randomSeq(rng, rng.Intn(20))...)
		if count(checkWidening(t, newRoutedProfile(t, a, first), &sc, a, b, first)) == 1 {
			firsts++
		}
	}

	crossed, bridged := 0, 0
	for trial := 0; trial < 60; trial++ {
		a := randomSeq(rng, 30+rng.Intn(31))
		p := newRoutedProfile(t, a, cheapGaps)
		const k = 8 // 8 × 9 > 127 − 9 − 50 ≥ 7 × 9: the widening column
		at := rng.Intn(len(a) - 20)
		head := a[at : at+k]
		cut := (len(a)+7)/8 + rng.Intn(5)
		b := append(slices.Clone(head), a[at+k+cut:]...)
		if count(checkWidening(t, p, &sc, a, b, cheapGaps)) != k {
			t.Fatalf("cheap-gap copy of a %d-base query widened elsewhere than after column %d", len(a), k)
		}
		if H, E, F := refDP(a, b, cheapGaps); crossOnly(a, b, cheapGaps, H, E, F, k) {
			crossed++
		}
		// The other gap direction: subject bases inserted after the
		// widening column, so a gap in the query straddles it and the
		// re-striped E words carry it on.
		b = append(append(slices.Clone(head), randomSeq(rng, 1+rng.Intn(6))...), a[at+k:]...)
		if count(checkWidening(t, p, &sc, a, b, cheapGaps)) != k {
			t.Fatalf("cheap-gap insertion into a %d-base query widened elsewhere than after column %d", len(a), k)
		}
		if al := Local(a, b, cheapGaps); gapped(al) && al.AStart <= at && al.AEnd > at+k {
			bridged++
		}
	}

	widened := 0
	for n := 1; n <= 40; n++ {
		for _, s := range []Scoring{first, {Match: 20, Mismatch: 7, GapOpen: 5, GapExtend: 2}, DefaultScoring(), wide} {
			a := randomSeq(rng, n)
			b := append(append(randomSeq(rng, rng.Intn(30)), mutate(rng, a, 0.1)...), randomSeq(rng, 1+rng.Intn(30))...)
			if count(checkWidening(t, newRoutedProfile(t, a, s), &sc, a, b, s)) > 0 {
				widened++
			}
		}
	}

	t.Logf("prefixes finished in bytes %d, widened %d, 16-bit only %d; %d widened after the first column, %d at a cross-stripe column, %d bridged it with a gap in the query, %d padding fixtures widened",
		tiers[0], tiers[1], tiers[2], firsts, crossed, bridged, widened)
	if tiers[0] < 500 || tiers[1] < 500 || tiers[2] < 500 || firsts < 20 || crossed < 30 || bridged < 30 || widened < 60 {
		t.Fatalf("fixture too tame: %v prefixes by tier, %d first-column, %d cross-stripe, %d bridged and %d padding widenings",
			tiers, firsts, crossed, bridged, widened)
	}
}

// TestLanePrimitives pins the SWAR building blocks of both lane
// geometries against per-lane reference arithmetic. A quarter of the
// lanes are drawn from the ends of the range (0, 1, cap−1, cap), where
// a borrow or a flag bit would go astray first.
func TestLanePrimitives(t *testing.T) {
	checkLanePrimitives[uint16](t, 16, 0x8000_8000_8000_8000)
	checkLanePrimitives[uint8](t, 8, 0x8080_8080_8080_8080)
}

func checkLanePrimitives[T lane](t *testing.T, bits uint, hi uint64) {
	t.Helper()
	top := 1<<(bits-1) - 1
	if laneBits[T]() != bits || laneHi[T]() != hi || laneCap[T]() != top {
		t.Fatalf("%d-bit geometry: %d bits, top bits %#x, cap %d", bits, laneBits[T](), laneHi[T](), laneCap[T]())
	}
	rng := rand.New(rand.NewSource(5))
	draw := func() uint64 {
		if rng.Intn(4) == 0 {
			return uint64([]int{0, 1, top - 1, top}[rng.Intn(4)])
		}
		return uint64(rng.Intn(top + 1))
	}
	for trial := 0; trial < 20000; trial++ {
		var x, y uint64
		var wantSub, wantMax uint64
		wantTop := 0
		for l := uint(0); l < 64/bits; l++ {
			xv, yv := draw(), draw()
			x |= xv << (bits * l)
			y |= yv << (bits * l)
			var sub uint64
			if xv > yv {
				sub = xv - yv
			}
			wantSub |= sub << (bits * l)
			wantMax |= max(xv, yv) << (bits * l)
			wantTop = max(wantTop, int(xv))
		}
		if got := laneSubSat[T](x, y); got != wantSub {
			t.Fatalf("%d-bit laneSubSat(%#x, %#x) = %#x, want %#x", bits, x, y, got, wantSub)
		}
		if got := laneMax[T](x, y); got != wantMax {
			t.Fatalf("%d-bit laneMax(%#x, %#x) = %#x, want %#x", bits, x, y, got, wantMax)
		}
		if got := laneTop[T](x); got != wantTop {
			t.Fatalf("%d-bit laneTop(%#x) = %d, want %d", bits, x, got, wantTop)
		}
		if v := int(draw()); laneTop[T](packLane[T](v)) != v || laneSubSat[T](packLane[T](v), packLane[T](v)) != 0 {
			t.Fatalf("%d-bit packLane(%d) = %#x", bits, v, packLane[T](v))
		}
	}
}

// BenchmarkFineKernels compares the scalar and bitvector score kernels
// on the fine phase's typical shape (400-base query, ~900-base
// candidate), times the bitvector kernel on every route on the served
// exact shape (150-base read, 5 000-base subject) in byte lanes
// throughout, in 16-bit lanes throughout and across a widening, and on
// 64- to 2 000-base queries against a 6 000-base subject, and — on
// BenchmarkBandedKernels' 600 × 8 000 pair — the two ways to the exact
// transcript once the score pass is done: the frozen full-matrix
// traceback and the strip LocalEndingAt traces from the end column.
// MB/s reads as nominal full-matrix cells per µs.
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
	// Each bitvector row runs once per route; words forces the 16-bit
	// lanes throughout.
	bitvector := func(name string, query, subject []byte, words bool) {
		b.Run(name, func(b *testing.B) {
			for _, r := range stripedRoutes() {
				b.Run(r.name, func(b *testing.B) {
					var p StripedProfile
					p.build(query, s, r)
					if words {
						p.narrowTop = 0
					}
					var sc StripedScratch
					b.SetBytes(int64(len(query)) * int64(len(subject)))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						p.Score(subject, &sc)
					}
				})
			}
		})
	}
	bitvector("bitvector", query, subject, false)

	// The served exact shape: a 150-base read against a 5 000-base
	// subject, unrelated (the byte lanes throughout, or the 16-bit lanes
	// throughout), and with a homolog of the read planted at base 2 000
	// (widens about 40 % of the way in).
	read := randomSeq(rng, 150)
	weak := randomSeq(rng, 5000)
	strong := slices.Clone(weak)
	copy(strong[2000:], mutate(rng, read, 0.05))
	bitvector("bitvector-150x5000", read, weak, false)
	bitvector("bitvector-150x5000-words", read, weak, true)
	bitvector("bitvector-150x5000-homolog", read, strong, false)

	// The query-length guard: 64- to 2 000-base queries against a
	// 6 000-base subject, unrelated and with a homolog planted at base
	// 2 000. The cross-lane scan runs fewer steps the longer the query
	// (one at 1 000 bases in AVX2 byte lanes), and its correction sweep
	// more vectors.
	for _, n := range []int{64, 150, 600, 2000} {
		query := randomSeq(rng, n)
		subject := randomSeq(rng, 6000)
		homolog := slices.Clone(subject)
		copy(homolog[2000:], mutate(rng, query, 0.05))
		name := fmt.Sprintf("bitvector-%dx6000", n)
		bitvector(name, query, subject, false)
		bitvector(name+"-homolog", query, homolog, false)
	}

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

package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/dna"
)

// localScorings are the schemes the strip lockdown sweeps: the five the
// kernel suites share plus one more with free gap opening and one more
// with free mismatches — the two settings that multiply co-optimal
// alignments, which is what the strip's bound has to cover.
var localScorings = append(append([]Scoring(nil), stripedScorings...),
	Scoring{Match: 3, Mismatch: 2, GapOpen: 0, GapExtend: 2},
	Scoring{Match: 4, Mismatch: 0, GapOpen: 5, GapExtend: 1},
)

// checkLocalAgainstRef requires the whole Alignment — score, spans,
// transcript, counters — of the strip-bounded Local to be DeepEqual to
// the frozen full-matrix reference's, through all three ways in: Local
// itself, LocalEndingAt handed the exact end cell (what the scalar
// kernel and the tie fallback do), and LocalEndingAt handed only the end
// column whenever the striped pass vouches for it (the bitvector
// hand-over). The scratches are the caller's, reused dirty. It reports
// whether the column hand-over ran and, when it could not, whether the
// column the striped pass saw first is not even the one Local ends in.
func checkLocalAgainstRef(t testing.TB, sub *Subst, sc *BandedScratch, bv *StripedScratch, a, b []byte) (byColumn, crossed bool) {
	t.Helper()
	s := sub.scoring
	want := refLocal(sub, a, b)
	if got := sub.Local(a, b, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("Local(%v, %v, %+v)\n got %+v\nwant %+v", a, b, s, got, want)
	}
	if got := sub.LocalEndingAt(a, b, want.Score, want.AEnd, want.BEnd, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("LocalEndingAt(%v, %v, %+v) at cell (%d,%d)\n got %+v\nwant %+v", a, b, s, want.AEnd, want.BEnd, got, want)
	}
	score, bEnd, unique, ok := NewStripedProfile(a, s).Score(b, bv)
	if !ok || score != want.Score {
		t.Fatalf("striped score of (%v, %v, %+v) = (%d,%v), Local's %d", a, b, s, score, ok, want.Score)
	}
	if !unique {
		return false, bEnd != want.BEnd
	}
	if got := sub.LocalEndingAt(a, b, score, 0, bEnd, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("LocalEndingAt(%v, %v, %+v) at column %d\n got %+v\nwant %+v", a, b, s, bEnd, got, want)
	}
	return true, false
}

// TestLocalStripExhaustiveSmallAlphabet sweeps every pair over {A,C} to
// length 7 and over {A,C,G,N} to length 3 under all seven scorings
// (under -short: one binary sweep to length 5 and one wildcard sweep).
// Two-letter pairs are mostly ties — several best cells, several
// co-optimal paths to each — so this is where a strip that cut off a
// rival path, or picked another end cell, would show.
func TestLocalStripExhaustiveSmallAlphabet(t *testing.T) {
	binary := enumerate([]byte{dna.BaseA, dna.BaseC}, 7)
	if testing.Short() {
		binary = enumerate([]byte{dna.BaseA, dna.BaseC}, 5)
	}
	wild := enumerate([]byte{dna.BaseA, dna.BaseC, dna.BaseG, dna.WildN}, 3)
	for si, s := range localScorings {
		if testing.Short() && si > 0 {
			break
		}
		t.Run(fmt.Sprintf("%+v", s), func(t *testing.T) {
			t.Parallel()
			sub := NewSubst(s)
			var sc BandedScratch
			var bv StripedScratch
			for _, set := range [][][]byte{binary, wild} {
				for _, a := range set {
					for _, b := range set {
						checkLocalAgainstRef(t, sub, &sc, &bv, a, b)
					}
				}
			}
		})
	}
}

// TestLocalStripRandomDifferential covers what the exhaustive sweep
// cannot reach: long rows, the full code space with junk and Masked
// bytes, homologous pairs with indels (whose strip is narrow), unrelated
// ones (whose strip is most of the matrix), subjects shorter than the
// strip is wide, one-base sequences — and planted ties: two equal-score
// pieces of the query in one subject in both orders, so that in one of
// them the later subject column holds the smaller query row, which is
// the cell Local ends at and not the one the striped pass sees first.
func TestLocalStripRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2001))
	var sc BandedScratch
	var bv StripedScratch
	for _, s := range localScorings {
		sub := NewSubst(s)
		byColumn, crossed := 0, 0
		for trial := 0; trial < 300; trial++ {
			var a, b []byte
			switch trial % 6 {
			case 0: // unrelated, full code space
				a, b = randCodes(rng, 1+rng.Intn(90)), randCodes(rng, 1+rng.Intn(200))
			case 1: // a is a mutated window of b
				b = randCodes(rng, 40+rng.Intn(300))
				at := rng.Intn(len(b) - 20)
				a = mutate(rng, b[at:at+20+rng.Intn(len(b)-at-19)], 0.15)
				if len(a) == 0 {
					a = []byte{dna.BaseA}
				}
			case 2: // the subject is shorter than the strip
				a, b = randCodes(rng, 30+rng.Intn(60)), randCodes(rng, 1+rng.Intn(12))
			case 3:
				a, b = randCodes(rng, 1), randCodes(rng, 1+rng.Intn(60))
			default: // planted tie: a's head and a's tail, k bases each
				a = randomSeq(rng, 24+rng.Intn(60))
				k := 8 + rng.Intn(len(a)/2-8)
				head, tail := a[:k], a[len(a)-k:]
				if trial%6 == 5 {
					head, tail = tail, head // the later column holds the smaller row
				}
				// Junk bytes, which match nothing, around the two copies:
				// neither extends by luck, so they tie unless one gapped
				// alignment can take both (head first, cheap gaps).
				junk := func() []byte {
					out := make([]byte, 1+rng.Intn(20))
					for i := range out {
						out[i] = byte(int(dna.NumCodes) + rng.Intn(256-int(dna.NumCodes)))
					}
					return out
				}
				b = append(append(junk(), head...), junk()...)
				b = append(append(b, tail...), junk()...)
			}
			if trial%7 == 0 {
				b[rng.Intn(len(b))] = Masked
				a[rng.Intn(len(a))] = Masked
			}
			switch unique, cross := checkLocalAgainstRef(t, sub, &sc, &bv, a, b); {
			case unique:
				byColumn++
			case cross:
				crossed++
			}
		}
		if byColumn < 100 || crossed < 10 {
			t.Errorf("%+v: %d column hand-overs and %d ties with Local's end in a later column, out of 300 — the fixture no longer forces both paths", s, byColumn, crossed)
		}
	}
}

// TestLocalStripLowComplexity: a poly-A query against a poly-A run has a
// best cell in every column past the query's length and a co-optimal
// path through every diagonal; Local must still end at the first row
// that reaches the score, however the run is flanked.
func TestLocalStripLowComplexity(t *testing.T) {
	var sc BandedScratch
	var bv StripedScratch
	polyA := make([]byte, 400) // zero value is BaseA
	for _, s := range localScorings {
		sub := NewSubst(s)
		for _, la := range []int{1, 7, 60} {
			for _, lb := range []int{1, 59, 60, 61, 400} {
				if unique, _ := checkLocalAgainstRef(t, sub, &sc, &bv, polyA[:la], polyA[:lb]); unique && lb > la {
					t.Fatalf("%+v: striped pass called a %d-column tie unique", s, lb-la+1)
				}
				flanked := append(append(seqOf("CGCG"), polyA[:lb]...), seqOf("GCGC")...)
				checkLocalAgainstRef(t, sub, &sc, &bv, polyA[:la], flanked)
			}
		}
	}
}

// TestSubstLocalScoreMatchesReference holds the scalar score pass — the
// banded pass over every diagonal — to the frozen row loop it replaced
// on (score, aEnd, bEnd): the tie rule (smallest row, then smallest
// column) included. Every pair over {A,C} to length 7 under the default
// scoring (to length 5 under the other six, and under -short) and over
// {A,C,G,N} to length 3 under all seven; then random pairs over the full
// code space, homologs, one-base sides and planted ties. Both scratches
// are reused dirty, and they alternate between long and short pairs.
func TestSubstLocalScoreMatchesReference(t *testing.T) {
	binary7 := enumerate([]byte{dna.BaseA, dna.BaseC}, 7)
	binary5 := enumerate([]byte{dna.BaseA, dna.BaseC}, 5)
	wild := enumerate([]byte{dna.BaseA, dna.BaseC, dna.BaseG, dna.WildN}, 3)
	var sc, ref BandedScratch
	check := func(sub *Subst, a, b []byte) {
		t.Helper()
		wScore, wA, wB := refSubstLocalScore(sub, a, b, &ref)
		if score, aEnd, bEnd := sub.LocalScore(a, b, &sc); score != wScore || aEnd != wA || bEnd != wB {
			t.Fatalf("LocalScore(%v, %v, %+v) = (%d,%d,%d), frozen loop (%d,%d,%d)", a, b, sub.scoring, score, aEnd, bEnd, wScore, wA, wB)
		}
	}
	rng := rand.New(rand.NewSource(2005))
	for si, s := range localScorings {
		sub := NewSubst(s)
		binary := binary5
		if si == 0 && !testing.Short() {
			binary = binary7
		}
		for _, set := range [][][]byte{binary, wild} {
			for _, a := range set {
				for _, b := range set {
					check(sub, a, b)
				}
			}
		}
		for trial := 0; trial < 300; trial++ {
			var a, b []byte
			switch trial % 5 {
			case 0:
				a, b = randCodes(rng, 1+rng.Intn(150)), randCodes(rng, 1+rng.Intn(400))
			case 1:
				b = randomSeq(rng, 40+rng.Intn(400))
				at := rng.Intn(len(b) - 20)
				a = mutate(rng, b[at:at+20+rng.Intn(len(b)-at-19)], 0.15)
			case 2:
				a, b = randCodes(rng, 1), randCodes(rng, 1+rng.Intn(60))
			case 3:
				a, b = randCodes(rng, 1+rng.Intn(60)), randCodes(rng, 1)
			default: // two copies of a piece of a: a tie across columns
				a = randomSeq(rng, 20+rng.Intn(40))
				piece := a[rng.Intn(10):][:10]
				b = append(append(append(randomSeq(rng, rng.Intn(9)), piece...), randomSeq(rng, rng.Intn(9))...), piece...)
			}
			if len(a) == 0 {
				a = []byte{dna.BaseA}
			}
			check(sub, a, b)
		}
	}
}

// refLocalAll is LocalAll over the frozen reference.
func refLocalAll(a, b []byte, s Scoring, minScore, max int) []Alignment {
	sub := NewSubst(s)
	masked := append([]byte(nil), b...)
	var out []Alignment
	for len(out) < max {
		al := refLocal(sub, a, masked)
		if al.Score < minScore || al.BEnd <= al.BStart {
			break
		}
		out = append(out, al)
		for j := al.BStart; j < al.BEnd; j++ {
			masked[j] = Masked
		}
	}
	return out
}

// TestLocalAllMatchesReference runs the repeated-alignment search —
// whose later rounds align against subjects with Masked stretches where
// the earlier hits were — through both implementations: a repeated
// domain in noise, every HSP DeepEqual.
func TestLocalAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2002))
	for _, s := range localScorings {
		for trial := 0; trial < 12; trial++ {
			domain := randomSeq(rng, 30+rng.Intn(40))
			var b []byte
			for c := 0; c < 2+rng.Intn(3); c++ {
				b = append(append(b, randomSeq(rng, 10+rng.Intn(80))...), mutate(rng, domain, 0.08)...)
			}
			want := refLocalAll(domain, b, s, 10*s.Match, 6)
			if got := LocalAll(domain, b, s, 10*s.Match, 6); !reflect.DeepEqual(got, want) {
				t.Fatalf("%+v trial %d: LocalAll\n got %+v\nwant %+v", s, trial, got, want)
			}
			if len(want) < 2 {
				t.Fatalf("%+v trial %d: %d HSPs, the fixture must reach a masked round", s, trial, len(want))
			}
		}
	}
}

// TestLocalStripDegrade pins the maxCells contract on both sides of the
// line without allocating anywhere near it. A strip is at most as wide
// as its matrix has diagonals, so the cheapest pair past the line is a
// 16 400-base query against a 100-base subject: handed the column alone,
// the strip is the whole 16 400 × 16 499 band and the call degrades to
// the score-only stub at Local's end cell; handed the cell, it is the
// rows above it and traces. A cell that would need more than maxCells
// is refused by arithmetic, before any sequence is read.
func TestLocalStripDegrade(t *testing.T) {
	rng := rand.New(rand.NewSource(2004))
	sub := NewSubst(DefaultScoring())
	var sc BandedScratch
	var bv StripedScratch
	a := randomSeq(rng, 16400)
	b := mutate(rng, a[8000:8100], 0.05)
	want := refLocal(sub, a, b)
	score, bEnd, unique, ok := NewStripedProfile(a, sub.scoring).Score(b, &bv)
	if !ok || !unique || score != want.Score || bEnd != want.BEnd {
		t.Fatalf("fixture: striped (%d, column %d, unique %v, ok %v), Local ends (%d, column %d)", score, bEnd, unique, ok, want.Score, want.BEnd)
	}
	stub := Alignment{Score: want.Score, AStart: want.AEnd, AEnd: want.AEnd, BStart: want.BEnd, BEnd: want.BEnd}
	if got := sub.LocalEndingAt(a, b, score, 0, bEnd, &sc); !reflect.DeepEqual(got, stub) {
		t.Fatalf("column hand-over past maxCells = %+v, want the stub %+v", got, stub)
	}
	if got := sub.TraceCells(len(a), score, 0, bEnd); got != 0 {
		t.Fatalf("TraceCells bills %d cells for a call that traced nothing", got)
	}
	if got := sub.Local(a, b, &sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("Local of the same pair (a strip of %d rows)\n got %+v\nwant %+v", want.AEnd, got, want)
	}

	far := Alignment{Score: 50, AStart: 12000, AEnd: 12000, BStart: 30000, BEnd: 30000}
	if got := sub.LocalEndingAt(nil, nil, far.Score, far.AEnd, far.BEnd, &sc); !reflect.DeepEqual(got, far) {
		t.Fatalf("a weak hit 12 000 rows down = %+v, want the stub %+v", got, far)
	}
	if _, _, _, ok := sub.traceStrip(12000, 59000, 12000, 30000); !ok {
		t.Fatal("the strip of a near-perfect 12 000-base hit does not fit maxCells")
	}
}

// TestLocalStripAllocations is the steady-state contract of an exact
// traceback on the benchmark's shape, a 150-base read against an 8 kb
// subject: on a warm scratch each way in allocates the transcript it
// returns and nothing else — no rows, no direction matrix, nothing that
// grows with the subject.
func TestLocalStripAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(2003))
	b := randomSeq(rng, 8000)
	a := mutate(rng, b[5000:5150], 0.08)
	sub := NewSubst(DefaultScoring())
	var sc BandedScratch
	want := refLocal(sub, a, b)
	if want.Score < 300 {
		t.Fatalf("fixture does not align: score %d", want.Score)
	}
	sub.Local(a, b, &sc) // grow the scratch
	sub.LocalEndingAt(a, b, want.Score, 0, want.BEnd, &sc)
	for name, fn := range map[string]func(){
		"Local":                   func() { sub.Local(a, b, &sc) },
		"LocalEndingAt (cell)":    func() { sub.LocalEndingAt(a, b, want.Score, want.AEnd, want.BEnd, &sc) },
		"LocalEndingAt (column)":  func() { sub.LocalEndingAt(a, b, want.Score, 0, want.BEnd, &sc) },
		"LocalScore (score pass)": func() { sub.LocalScore(a, b, &sc) },
	} {
		wantAllocs := 1.0
		if name == "LocalScore (score pass)" {
			wantAllocs = 0
		}
		if n := testing.AllocsPerRun(10, fn); n != wantAllocs {
			t.Errorf("%s allocates %v times per call, want %v", name, n, wantAllocs)
		}
	}
	if cells, full := sub.TraceCells(len(a), want.Score, 0, want.BEnd), LocalCells(len(a), len(b)); cells*10 > full {
		t.Errorf("the strip is %d cells of a %d-cell matrix: not bounded by the alignment", cells, full)
	}
}

// FuzzLocalAlign is the differential fuzz target of the strip-bounded
// traceback: arbitrary byte sequences (codes, wildcards, junk, Masked)
// under arbitrary small scorings must align DeepEqual to the frozen
// full-matrix reference through Local and both hand-overs. Run via
// `make fuzz-smoke` or `go test -fuzz=FuzzLocalAlign ./internal/align`.
func FuzzLocalAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3}, uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1), uint16(1), uint16(0), uint16(1))
	f.Add([]byte{0, 1, 2, 3, 3, 1, 0, 2}, []byte{3, 1, 0, 2, 9, 9, 0, 1, 2, 3}, uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte{0xFF, 0xFF, 0x20, 3, 2, 1, 0}, []byte{3, 2, 1, 0, 0xFF}, uint16(2), uint16(7), uint16(0), uint16(1))
	f.Add([]byte{2}, []byte{1, 2, 3}, uint16(5), uint16(0), uint16(2), uint16(1))

	var sc BandedScratch
	var bv StripedScratch
	sub := NewSubst(DefaultScoring())
	f.Fuzz(func(t *testing.T, a, b []byte, match, mism, open, ext uint16) {
		// Bound the quadratic DP so mutated inputs stay fast.
		if len(a) > 300 {
			a = a[:300]
		}
		if len(b) > 300 {
			b = b[:300]
		}
		if s := fuzzScoring(match, mism, open, ext); sub.scoring != s {
			sub = NewSubst(s)
		}
		checkLocalAgainstRef(t, sub, &sc, &bv, a, b)
	})
}

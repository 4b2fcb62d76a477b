package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/dna"
)

// checkBandedAgainstRef runs both banded kernels through the scratch
// entry points and requires their answers to be DeepEqual to the frozen
// reference implementations'. The scratch is the caller's, reused dirty
// across calls, so anything a kernel wrongly assumes about it (zeroed
// rows, a clean direction matrix) shows up here.
func checkBandedAgainstRef(t testing.TB, sub *Subst, sc *BandedScratch, a, b []byte, centre, band int) {
	t.Helper()
	s := sub.scoring
	wScore, wA, wB := refBandedLocalScore(a, b, centre, band, s)
	gScore, gA, gB := sub.BandedLocalScore(a, b, centre, band, sc)
	if gScore != wScore || gA != wA || gB != wB {
		t.Fatalf("BandedLocalScore(%v, %v, centre %d, band %d, %+v) = (%d,%d,%d), reference (%d,%d,%d)",
			a, b, centre, band, s, gScore, gA, gB, wScore, wA, wB)
	}
	want := refBandedLocal(a, b, centre, band, s)
	if got := sub.BandedLocal(a, b, centre, band, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("BandedLocal(%v, %v, centre %d, band %d, %+v)\n got %+v\nwant %+v", a, b, centre, band, s, got, want)
	}
	// The searcher's traceback is truncated at the score pass's end row.
	if got := sub.BandedLocal(a[:wA], b, centre, band, sc); !reflect.DeepEqual(got, want) {
		t.Fatalf("BandedLocal(a[:%d]) of (%v, %v, centre %d, band %d, %+v)\n got %+v\nwant %+v", wA, a, b, centre, band, s, got, want)
	}
}

// TestBandedKernelsExhaustiveSmallAlphabet sweeps every pair over {A,C}
// to length 7 (length 5 under the four non-default scorings) and over
// {A,C,G,N} to length 3, with the band centred from
// diagonal −3 to three right of the matrix and half-widths 0, 1, 2 and
// 5 — every way a narrow band can enter, leave and miss a small matrix.
// Under -short (the race pass, which these single-goroutine sweeps give
// nothing to find) one binary sweep to length 5 and one wildcard sweep
// remain.
func TestBandedKernelsExhaustiveSmallAlphabet(t *testing.T) {
	binary7 := enumerate([]byte{dna.BaseA, dna.BaseC}, 7)
	binary5 := enumerate([]byte{dna.BaseA, dna.BaseC}, 5)
	wild := enumerate([]byte{dna.BaseA, dna.BaseC, dna.BaseG, dna.WildN}, 3)
	sweep := func(name string, s Scoring, as, bs [][]byte) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var sc BandedScratch
			sub := NewSubst(s)
			for _, a := range as {
				for _, b := range bs {
					for centre := -3; centre <= len(b)+3; centre++ {
						for _, band := range []int{0, 1, 2, 5} {
							checkBandedAgainstRef(t, sub, &sc, a, b, centre, band)
						}
					}
				}
			}
		})
	}
	for si, s := range stripedScorings {
		name := fmt.Sprintf("%+v", s)
		switch {
		case !testing.Short() && si == 0:
			// The one long sweep, in two halves for the second CPU.
			half := len(binary7) / 2
			sweep(name+"/binary7a", s, binary7[:half], binary7)
			sweep(name+"/binary7b", s, binary7[half:], binary7)
		case !testing.Short():
			sweep(name+"/binary5", s, binary5, binary5)
		case si == 0:
			sweep(name+"/binary5", s, binary5, binary5)
			continue // -short: one binary and one wildcard sweep
		case si != 1:
			continue
		}
		sweep(name+"/wild", s, wild, wild)
	}
}

// mutate returns a copy of src with substitutions, insertions and
// deletions at roughly the given per-base rate.
func mutate(rng *rand.Rand, src []byte, rate float64) []byte {
	out := make([]byte, 0, len(src)+8)
	for _, c := range src {
		switch r := rng.Float64(); {
		case r < rate/3:
			out = append(out, byte(rng.Intn(int(dna.NumBases))))
		case r < 2*rate/3:
			out = append(out, c, byte(rng.Intn(int(dna.NumBases))))
		case r < rate:
		default:
			out = append(out, c)
		}
	}
	return out
}

// TestBandedKernelsRandomDifferential covers what the exhaustive sweep
// cannot reach: long rows, homologous pairs whose alignment wanders
// across the band, wildcard, junk and Masked codes, bands that leave the
// matrix on either side, and one-base sequences.
func TestBandedKernelsRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1406))
	var sc BandedScratch
	for _, s := range stripedScorings {
		sub := NewSubst(s)
		for trial := 0; trial < 400; trial++ {
			var a, b []byte
			switch trial % 4 {
			case 0: // unrelated, full code space
				a, b = randCodes(rng, 1+rng.Intn(90)), randCodes(rng, 1+rng.Intn(200))
			case 1: // a is a mutated window of b
				b = randCodes(rng, 40+rng.Intn(300))
				at := rng.Intn(len(b) - 20)
				a = mutate(rng, b[at:at+20+rng.Intn(len(b)-at-19)], 0.15)
				if len(a) == 0 {
					a = []byte{dna.BaseA}
				}
			case 2:
				a, b = randCodes(rng, 1), randCodes(rng, 1+rng.Intn(60))
			default:
				a, b = randCodes(rng, 1+rng.Intn(60)), randCodes(rng, 1)
			}
			if trial%7 == 0 {
				b[rng.Intn(len(b))] = Masked
				a[rng.Intn(len(a))] = Masked
			}
			band := rng.Intn(30)
			// Centres from well left of the matrix to well right of it.
			centre := rng.Intn(len(a)+len(b)+2*band+9) - len(a) - band - 4
			checkBandedAgainstRef(t, sub, &sc, a, b, centre, band)
		}
	}
}

// TestBandedWrappersMatchKernels pins the Scoring-taking entry points
// (what bench/ and internal/baseline call) to the reference, across
// alternating scorings so the pooled kernel's recompile path runs.
func TestBandedWrappersMatchKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	for trial := 0; trial < 200; trial++ {
		s := stripedScorings[trial%len(stripedScorings)]
		a, b := randCodes(rng, 1+rng.Intn(80)), randCodes(rng, 1+rng.Intn(120))
		band := rng.Intn(12)
		centre := rng.Intn(len(a)+len(b)) - len(a)
		wScore, wA, wB := refBandedLocalScore(a, b, centre, band, s)
		if score, aEnd, bEnd := BandedLocalScore(a, b, centre, band, s); score != wScore || aEnd != wA || bEnd != wB {
			t.Fatalf("trial %d: BandedLocalScore = (%d,%d,%d), reference (%d,%d,%d)", trial, score, aEnd, bEnd, wScore, wA, wB)
		}
		if got, want := BandedLocal(a, b, centre, band, s), refBandedLocal(a, b, centre, band, s); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: BandedLocal\n got %+v\nwant %+v", trial, got, want)
		}
	}
}

// TestSubstMatchesScore pins the compiled table to Scoring.Score over
// the whole byte×byte domain.
func TestSubstMatchesScore(t *testing.T) {
	for _, s := range stripedScorings {
		sub := NewSubst(s)
		for a := 0; a < 256; a++ {
			for b := 0; b < 256; b++ {
				if got, want := int(sub.row(byte(a))[b]), s.Score(byte(a), byte(b)); got != want {
					t.Fatalf("%+v: table[%d][%d] = %d, Score = %d", s, a, b, got, want)
				}
			}
		}
	}
}

// TestBandedKernelAllocations is the steady-state contract of the
// scratch entry points: the score pass allocates nothing, the traceback
// pass only the transcript it returns.
func TestBandedKernelAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1408))
	b := randomSeq(rng, 4000)
	a := mutate(rng, b[1000:1600], 0.1)
	sub := NewSubst(DefaultScoring())
	var sc BandedScratch
	if score, _, _ := sub.BandedLocalScore(a, b, 1000, 24, &sc); score < 1000 {
		t.Fatalf("fixture does not align: score %d", score)
	}
	sub.BandedLocal(a, b, 1000, 24, &sc) // grow the scratch
	if n := testing.AllocsPerRun(20, func() { sub.BandedLocalScore(a, b, 1000, 24, &sc) }); n != 0 {
		t.Errorf("BandedLocalScore allocates %v times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { sub.BandedLocal(a, b, 1000, 24, &sc) }); n != 1 {
		t.Errorf("BandedLocal allocates %v times per call, want 1 (the transcript)", n)
	}
}

// FuzzBandedAlign is the differential fuzz target of the banded
// kernels: arbitrary byte sequences (codes, wildcards, junk, Masked)
// under arbitrary small scorings, band centres and widths must produce
// answers DeepEqual to the frozen reference implementations'. Run via
// `make fuzz-smoke` or `go test -fuzz=FuzzBandedAlign ./internal/align`.
func FuzzBandedAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3}, int16(0), uint8(2), uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{1, 1, 1, 1}, int16(-2), uint8(0), uint16(1), uint16(1), uint16(0), uint16(1))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{14, 14, 14}, int16(3), uint8(5), uint16(9), uint16(50), uint16(1), uint16(1))
	f.Add([]byte{0xFF, 0xFF, 0x20, 3, 2, 1, 0}, []byte{3, 2, 1, 0, 0xFF}, int16(-4), uint8(24), uint16(2), uint16(7), uint16(0), uint16(1))
	f.Add([]byte{2}, []byte{1, 2, 3}, int16(1), uint8(1), uint16(5), uint16(0), uint16(2), uint16(1))

	var sc BandedScratch
	sub := NewSubst(DefaultScoring())
	f.Fuzz(func(t *testing.T, a, b []byte, centre int16, band uint8, match, mism, open, ext uint16) {
		// Bound the DP so mutated inputs stay fast.
		if len(a) > 300 {
			a = a[:300]
		}
		if len(b) > 300 {
			b = b[:300]
		}
		if s := fuzzScoring(match, mism, open, ext); sub.scoring != s {
			sub = NewSubst(s)
		}
		checkBandedAgainstRef(t, sub, &sc, a, b, int(centre)%512, int(band%64))
	})
}

// BenchmarkBandedKernels times the banded score and traceback passes on
// the default query's shape — a 600-base query against an 8 kb subject
// at band 24 — through the scratch entry points, beside the frozen
// reference implementations they replaced.
func BenchmarkBandedKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	subject := randomSeq(rng, 8000)
	query := mutate(rng, subject[3000:3600], 0.1)
	s := DefaultScoring()
	sub := NewSubst(s)
	var sc BandedScratch
	cells := BandedCells(len(query), len(subject), 3000, 24)
	run := func(name string, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(cells) // MB/s reads as cells/µs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
		})
	}
	run("score", func() { sub.BandedLocalScore(query, subject, 3000, 24, &sc) })
	run("score-ref", func() { refBandedLocalScore(query, subject, 3000, 24, s) })
	run("traceback", func() { sub.BandedLocal(query, subject, 3000, 24, &sc) })
	run("traceback-ref", func() { refBandedLocal(query, subject, 3000, 24, s) })
}

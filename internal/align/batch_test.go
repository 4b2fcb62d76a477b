package align

import (
	"fmt"
	"math/rand"
	"testing"

	"nucleodb/internal/dna"
)

// batchScorings are the scorings the batched pass is held to: the
// striped suite's, two with little byte headroom (127 − Match − Mismatch
// of 7 and 67, so lanes hand off after one or two matches), one with
// none and one whose gap penalty overflows a byte (both run the scalar
// kernel lane by lane).
var batchScorings = append(append([]Scoring(nil), stripedScorings...),
	Scoring{Match: 60, Mismatch: 60, GapOpen: 1, GapExtend: 1},
	Scoring{Match: 40, Mismatch: 20, GapOpen: 3, GapExtend: 2},
	Scoring{Match: 70, Mismatch: 60, GapOpen: 2, GapExtend: 1},
	Scoring{Match: 5, Mismatch: 4, GapOpen: 200, GapExtend: 1},
)

// batchCase is one lane of a batch: a subject and its band centre.
type batchCase struct {
	b      []byte
	centre int
}

// checkBatchAgainstRef runs one BatchBandedScore call over the cases
// and requires every lane's score, aEnd and bEnd to equal
// refBandedLocalScore's. The scratch is the caller's, reused dirty; the
// suites hand it routedBatchScratch, so the rows of the hand-offs and of
// the small batches also run on every route.
func checkBatchAgainstRef(t testing.TB, sub *Subst, sc *BatchScratch, a []byte, band int, cases []batchCase) {
	t.Helper()
	lanes := make([]BatchLane, len(cases))
	for k, c := range cases {
		lanes[k] = BatchLane{B: c.b, Centre: c.centre, Score: -1, AEnd: -1, BEnd: -1}
	}
	sub.BatchBandedScore(a, band, lanes, sc)
	for k, c := range cases {
		s, aEnd, bEnd := refBandedLocalScore(a, c.b, c.centre, band, sub.scoring)
		if l := lanes[k]; l.Score != s || l.AEnd != aEnd || l.BEnd != bEnd {
			t.Fatalf("%+v, forceAt %d: lane %d of %d: BatchBandedScore(%v, %v, centre %d, band %d) = (%d,%d,%d), reference (%d,%d,%d); handed at %v",
				sub.scoring, sc.forceAt, k, len(cases), a, c.b, c.centre, band, l.Score, l.AEnd, l.BEnd, s, aEnd, bEnd, sc.handedAt)
		}
	}
}

// routedBatchScratch returns a batch scratch whose scalar rows run on
// every route through routedRows.
func routedBatchScratch(t testing.TB) *BatchScratch {
	return &BatchScratch{banded: BandedScratch{route: routedRows(t)}}
}

// TestBatchBandedExhaustiveSmallAlphabet sweeps every query over {A,C}
// to length 5 against every subject over {A,C} to length 4 and the empty
// one, each at band centres from three left of the matrix to three right
// of it, at half-widths 0, 1, 2 and 5. The (subject, centre) pairs fill
// the lanes in order, so every lane position meets every pair beside
// mixed neighbours, and the last batch of each sweep is short. -short
// keeps the default scoring and the one with seven points of headroom.
func TestBatchBandedExhaustiveSmallAlphabet(t *testing.T) {
	queries := enumerate([]byte{dna.BaseA, dna.BaseC}, 5)
	subjects := append([][]byte{{}}, enumerate([]byte{dna.BaseA, dna.BaseC}, 4)...)
	var cases []batchCase
	for _, b := range subjects {
		for centre := -3 - 5; centre <= len(b)+3; centre++ {
			cases = append(cases, batchCase{b, centre})
		}
	}
	for si, s := range batchScorings {
		if testing.Short() && si != 0 && si != len(stripedScorings) {
			continue
		}
		t.Run(fmt.Sprintf("%+v", s), func(t *testing.T) {
			t.Parallel()
			sub := NewSubst(s)
			sc := routedBatchScratch(t)
			for _, a := range queries {
				for _, band := range []int{0, 1, 2, 5} {
					for at := 0; at < len(cases); at += BatchLanes {
						checkBatchAgainstRef(t, sub, sc, a, band, cases[at:min(at+BatchLanes, len(cases))])
					}
				}
			}
		})
	}
}

// randomBatch returns a query and up to eight lanes for it: homologs of
// the query at their diagonal and off it, unrelated subjects over the
// full code space (wildcards, junk, Masked), empty and one-base subjects,
// and bands hanging off either edge of the matrix.
func randomBatch(rng *rand.Rand, lanes int) (a []byte, band int, cases []batchCase) {
	a = randCodes(rng, 1+rng.Intn(120))
	band = rng.Intn(20)
	for k := 0; k < lanes; k++ {
		var b []byte
		centre := 0
		switch rng.Intn(6) {
		case 0, 1: // a mutated copy of the query inside random flanks
			diag := rng.Intn(60)
			b = append(randCodes(rng, diag), mutate(rng, a, 0.1)...)
			b = append(b, randCodes(rng, rng.Intn(40))...)
			centre = diag + rng.Intn(2*band+1) - band
		case 2: // unrelated
			b = randCodes(rng, 1+rng.Intn(200))
			centre = rng.Intn(len(b)+1) - len(a)/2
		case 3: // empty or one base
			b = randCodes(rng, rng.Intn(2))
			centre = rng.Intn(5) - 2
		case 4: // off the left edge
			b = randCodes(rng, 1+rng.Intn(100))
			centre = -len(a) - rng.Intn(band+3) + rng.Intn(band+1)
		default: // off the right edge
			b = randCodes(rng, 1+rng.Intn(100))
			centre = len(b) - rng.Intn(band+3) + rng.Intn(band+1)
		}
		if rng.Intn(5) == 0 && len(b) > 0 {
			b[rng.Intn(len(b))] = Masked
		}
		cases = append(cases, batchCase{b, centre})
	}
	return a, band, cases
}

// TestBatchBandedRandomDifferential holds random batches of one to eight
// lanes to the reference under every batch scoring, and each batch again
// with the hand-off forced after every row: every lane still in the byte
// lanes leaves for the scalar rows there, whatever its score.
func TestBatchBandedRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3001))
	trials := 120
	if testing.Short() {
		trials = 12
	}
	for _, s := range batchScorings {
		sub := NewSubst(s)
		sc := routedBatchScratch(t)
		handed := 0
		for trial := 0; trial < trials; trial++ {
			a, band, cases := randomBatch(rng, 1+trial%BatchLanes)
			sc.forceAt = 0
			checkBatchAgainstRef(t, sub, sc, a, band, cases)
			for _, at := range sc.handedAt {
				if at >= 0 {
					handed++
				}
			}
			for sc.forceAt = 1; sc.forceAt <= len(a); sc.forceAt++ {
				checkBatchAgainstRef(t, sub, sc, a, band, cases)
			}
		}
		// Scorings with byte headroom must exercise both exits.
		if top := 127 - s.Match - s.Mismatch; top > 0 && s.GapOpen+s.GapExtend <= 127 && top < 100 && handed == 0 {
			t.Errorf("%+v: no lane handed off on its own in %d trials", s, trials)
		}
	}
}

// TestBatchBandedHandOff pins where lanes leave the byte lanes: a
// homolog of a 300-base query leaves after the first row whose best
// passes 118 under the default scoring, at the row the scalar pass first
// exceeds it, while unrelated subjects in the same batch stay to the end.
func TestBatchBandedHandOff(t *testing.T) {
	rng := rand.New(rand.NewSource(3002))
	sub := NewSubst(DefaultScoring())
	a := randomSeq(rng, 300)
	cases := []batchCase{{append(randomSeq(rng, 50), mutate(rng, a, 0.05)...), 50}}
	for k := 1; k < BatchLanes; k++ {
		cases = append(cases, batchCase{randomSeq(rng, 400), 40})
	}
	var sc BatchScratch
	checkBatchAgainstRef(t, sub, &sc, a, 24, cases)
	// The row the scalar pass's running best first exceeds 118.
	want := -1
	for rows := 1; rows <= len(a); rows++ {
		if s, _, _ := refBandedLocalScore(a[:rows], cases[0].b, 50, 24, sub.scoring); s > 118 {
			want = rows - 1
			break
		}
	}
	if want < 0 || sc.handedAt[0] != want {
		t.Fatalf("homolog handed off after row %d, want %d", sc.handedAt[0], want)
	}
	for k := 1; k < BatchLanes; k++ {
		if sc.handedAt[k] >= 0 {
			t.Fatalf("unrelated lane %d handed off after row %d", k, sc.handedAt[k])
		}
	}
}

// TestBatchBandedAllocations: once the scratch has grown, a batch
// allocates nothing.
func TestBatchBandedAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	sub := NewSubst(DefaultScoring())
	a, band, cases := randomBatch(rng, BatchLanes)
	lanes := make([]BatchLane, len(cases))
	for k, c := range cases {
		lanes[k] = BatchLane{B: c.b, Centre: c.centre}
	}
	var sc BatchScratch
	sub.BatchBandedScore(a, band, lanes, &sc)
	if n := testing.AllocsPerRun(20, func() { sub.BatchBandedScore(a, band, lanes, &sc) }); n != 0 {
		t.Errorf("BatchBandedScore allocates %v times per call, want 0", n)
	}
}

// FuzzBatchBanded is the differential fuzz target of the batched pass:
// a query, a blob cut into one to eight subjects, per-lane centres, a
// band, a small scoring and a forced hand-off row must give every lane
// refBandedLocalScore's answer, with every scalar row the same on every
// route. Run via `make fuzz-smoke` or `go test
// -fuzz=FuzzBatchBanded ./internal/align`.
func FuzzBatchBanded(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 3}, []byte{0, 2, 250, 4}, uint8(2), uint8(0), uint16(5), uint16(4), uint16(10), uint16(2))
	f.Add([]byte{0, 0, 0, 0, 0, 0}, []byte{0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0}, []byte{0, 1, 2, 3, 4, 5, 6, 7}, uint8(3), uint8(4), uint16(59), uint16(59), uint16(1), uint16(1))
	f.Add([]byte{4, 5, 14, 0xFF, 2}, []byte{14, 14, 0xFF, 3, 2, 1}, []byte{0xFF, 1, 2}, uint8(0), uint8(1), uint16(9), uint16(50), uint16(1), uint16(1))
	f.Add([]byte{2, 2, 2, 2}, []byte{}, []byte{0, 0, 0, 0, 0}, uint8(5), uint8(0), uint16(1), uint16(0), uint16(0), uint16(1))

	var sc BatchScratch
	sub := NewSubst(DefaultScoring())
	f.Fuzz(func(t *testing.T, a, blob, centres []byte, band, forceAt uint8, match, mism, open, ext uint16) {
		if len(a) > 200 {
			a = a[:200]
		}
		if len(blob) > 1600 {
			blob = blob[:1600]
		}
		if s := fuzzScoring(match, mism, open, ext); sub.scoring != s {
			sub = NewSubst(s)
		}
		lanes := 1 + len(centres)%BatchLanes
		cases := make([]batchCase, lanes)
		for k := range cases {
			// Lane k's subject is the blob's k-th share; its centre is a
			// signed byte of centres, so bands leave both edges.
			lo, hi := len(blob)*k/lanes, len(blob)*(k+1)/lanes
			c := 0
			if k < len(centres) {
				c = int(int8(centres[k]))
			}
			cases[k] = batchCase{blob[lo:hi], c}
		}
		sc.forceAt = int(forceAt)
		sc.banded.route = routedRows(t)
		checkBatchAgainstRef(t, sub, &sc, a, int(band%32), cases)
	})
}

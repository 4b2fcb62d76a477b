package align

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nucleodb/internal/dna"
)

// checkBandedAgainstRef runs both banded kernels through the scratch
// entry points and requires their answers to be DeepEqual to the frozen
// reference implementations'. The scratch is the caller's, reused dirty
// across calls, so anything a kernel wrongly assumes about it (zeroed
// rows, a clean direction matrix) shows up here; the suites hand it a
// routedScratch, so every pass also runs on every route.
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
			sc := routedScratch(t)
			sub := NewSubst(s)
			for _, a := range as {
				for _, b := range bs {
					for centre := -3; centre <= len(b)+3; centre++ {
						for _, band := range []int{0, 1, 2, 5} {
							checkBandedAgainstRef(t, sub, sc, a, b, centre, band)
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
	sc := routedScratch(t)
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
			checkBandedAgainstRef(t, sub, sc, a, b, centre, band)
		}
	}
}

// TestBandedKernelsLargeScores runs the kernels at Match 2^18 on pairs
// of up to 1 000 bases, so H reaches ≈ 2.6·10^8, with bands that hang
// off either edge of the matrix. negInf documents the range inside
// which the traceback's sign-bit flags cannot wrap; this pins them to
// the reference's comparisons well inside it, where scores are far
// larger than any small-alphabet sweep reaches (a sign read from 16
// bits passes every other suite here and fails this one).
func TestBandedKernelsLargeScores(t *testing.T) {
	const m = 1 << 18
	rng := rand.New(rand.NewSource(1409))
	sc := routedScratch(t)
	var top int
	for _, s := range []Scoring{
		{Match: m, Mismatch: m * 4 / 5, GapOpen: 2 * m, GapExtend: m / 2},
		{Match: m, Mismatch: m, GapOpen: 0, GapExtend: m},
		{Match: m, Mismatch: 3 * m, GapOpen: 4 * m, GapExtend: 1},
	} {
		sub := NewSubst(s)
		for trial := 0; trial < 24; trial++ {
			var a, b []byte
			diag := 0
			switch trial % 3 {
			case 0: // an exact copy: the largest score the length allows
				b = randomSeq(rng, 1000)
				a = slices.Clone(b[:700+rng.Intn(301)])
			case 1: // homologous
				b = randomSeq(rng, 200+rng.Intn(801))
				diag = rng.Intn(len(b) / 4)
				a = mutate(rng, b[diag:], 0.08)
			default: // unrelated, full code space
				a, b = randCodes(rng, 1+rng.Intn(1000)), randCodes(rng, 1+rng.Intn(1000))
			}
			band := 1 + rng.Intn(40)
			centre := diag + rng.Intn(band+1)
			switch trial % 4 {
			case 1: // off the left edge: the band starts left of b
				centre = -rng.Intn(band + 1)
			case 2: // off the right edge: the band ends right of b
				centre = len(b) - rng.Intn(band+1)
			}
			checkBandedAgainstRef(t, sub, sc, a, b, centre, band)
			score, _, _ := sub.BandedLocalScore(a, b, centre, band, sc)
			top = max(top, score)
		}
	}
	if top < 250_000_000 {
		t.Fatalf("largest score %d: the fixture no longer reaches the range it pins", top)
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
// scratch entry points on every pass route: the score pass and the
// batch (on the vector batch where the route has one, lane by lane
// where it does not) allocate nothing, the traceback pass only the
// transcript it returns.
func TestBandedKernelAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(1408))
	b := randomSeq(rng, 4000)
	a := mutate(rng, b[1000:1600], 0.1)
	sub := NewSubst(DefaultScoring())
	windows, centres := make([][]byte, MaxLanes), make([]int, MaxLanes)
	for l := range windows {
		windows[l], centres[l] = windowOf(b, 1000+l-MaxLanes/2, 24, len(a))
	}
	out := make([]LaneScore, MaxLanes)
	for _, r := range passRoutes() {
		sc := BandedScratch{route: r}
		if score, _, _ := sub.BandedLocalScore(a, b, 1000, 24, &sc); score < 1000 {
			t.Fatalf("fixture does not align: score %d", score)
		}
		sub.BandedLocal(a, b, 1000, 24, &sc) // grow the scratch
		sub.BandedLocalScoreLanes(a, windows, centres, 24, &sc, out)
		if n := testing.AllocsPerRun(20, func() { sub.BandedLocalScore(a, b, 1000, 24, &sc) }); n != 0 {
			t.Errorf("%s pass: BandedLocalScore allocates %v times per call, want 0", r.name, n)
		}
		if n := testing.AllocsPerRun(20, func() { sub.BandedLocal(a, b, 1000, 24, &sc) }); n != 1 {
			t.Errorf("%s pass: BandedLocal allocates %v times per call, want 1 (the transcript)", r.name, n)
		}
		if n := testing.AllocsPerRun(20, func() { sub.BandedLocalScoreLanes(a, windows, centres, 24, &sc, out) }); n != 0 {
			t.Errorf("%s pass: BandedLocalScoreLanes of %d windows allocates %v times per call, want 0", r.name, len(windows), n)
		}
	}
}

// TestBandedScratchKeepsNoHugeBuffers: a traceback whose direction
// matrix and transcript each pass maxPooledDir (a 1.1 Mbase self-match
// at band 0) leaves neither in the scratch, so one huge query does not
// pin them in every pooled searcher.
func TestBandedScratchKeepsNoHugeBuffers(t *testing.T) {
	a := randomSeq(rand.New(rand.NewSource(1409)), maxPooledDir+100_000)
	var sc BandedScratch
	if al := NewSubst(DefaultScoring()).BandedLocal(a, a, 0, 0, &sc); len(al.Ops) != len(a) {
		t.Fatalf("self-match transcript of %d columns, want %d", len(al.Ops), len(a))
	}
	if cap(sc.dir) > maxPooledDir || cap(sc.ops) > maxPooledDir {
		t.Fatalf("scratch keeps a %d-byte direction matrix and a %d-byte transcript, want at most %d each", cap(sc.dir), cap(sc.ops), maxPooledDir)
	}

	// A batch whose transposed windows pass maxPooledCols (a 3 000-base
	// query at band 1 000: 5 000 positions of MaxLanes bytes) scores
	// them in a buffer of its own, and a default one afterwards keeps
	// its own in the scratch.
	sub := NewSubst(DefaultScoring())
	windows, centres := make([][]byte, MaxLanes), make([]int, MaxLanes)
	for l := range windows {
		windows[l], centres[l] = a[:5000], l
	}
	out := make([]LaneScore, MaxLanes)
	sub.BandedLocalScoreLanes(a[:3000], windows, centres, 1000, &sc, out)
	if cap(sc.cols) > maxPooledCols {
		t.Fatalf("scratch keeps %d bytes of transposed windows, want at most %d", cap(sc.cols), maxPooledCols)
	}
	sub.BandedLocalScoreLanes(a[:600], windows, centres, 24, &sc, out)
	if _, ok := vectorPass(); ok && cap(sc.cols) == 0 {
		t.Fatal("a default batch keeps no transposed windows in the scratch")
	}
}

// FuzzBandedAlign is the differential fuzz target of the banded
// kernels: arbitrary byte sequences (codes, wildcards, junk, Masked)
// under arbitrary small scorings, band centres and widths must produce
// answers DeepEqual to the frozen reference implementations', with every
// pass the same on every route. The fine phase scores a band over a
// window of the subject, so the kernels also run on a window holding
// every band cell, starting up to off bases before the band's first
// column, with the centre shifted by its start: the answers are the
// whole subject's, in window coordinates. Then the batch scores b cut
// into up to MaxLanes windows, each lane its own BandedLocalScore. Run
// via `make fuzz-smoke` or `go test -fuzz=FuzzBandedAlign
// ./internal/align`.
func FuzzBandedAlign(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 0, 1, 2, 3}, []byte{0, 1, 2, 3}, int16(0), uint8(2), uint16(5), uint16(4), uint16(10), uint16(2), uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0}, []byte{1, 1, 1, 1}, int16(-2), uint8(0), uint16(1), uint16(1), uint16(0), uint16(1), uint16(1))
	f.Add([]byte{4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, []byte{14, 14, 14}, int16(3), uint8(5), uint16(9), uint16(50), uint16(1), uint16(1), uint16(2))
	f.Add([]byte{0xFF, 0xFF, 0x20, 3, 2, 1, 0}, []byte{3, 2, 1, 0, 0xFF}, int16(-4), uint8(24), uint16(2), uint16(7), uint16(0), uint16(1), uint16(3))
	f.Add([]byte{2}, []byte{1, 2, 3}, int16(1), uint8(1), uint16(5), uint16(0), uint16(2), uint16(1), uint16(0))
	f.Add([]byte{0, 1, 2, 3, 3, 2, 1, 0, 0, 1}, []byte{3, 3, 3, 0, 1, 2, 3, 3, 2, 1, 0, 0, 1, 2, 2}, int16(6), uint8(2), uint16(5), uint16(4), uint16(10), uint16(2), uint16(4))

	var sc BandedScratch
	sub := NewSubst(DefaultScoring())
	f.Fuzz(func(t *testing.T, a, b []byte, centre int16, band uint8, match, mism, open, ext uint16, off uint16) {
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
		sc.route = routedPass(t)
		c, w := int(centre)%512, int(band%64)
		checkBandedAgainstRef(t, sub, &sc, a, b, c, w)

		// The window: the band's columns over a's rows, clipped to b, and
		// up to off bases more on the left.
		lo := min(max(c-w, 0), len(b))
		hi := max(min(c+w+len(a), len(b)), lo)
		from := lo - int(off)%(lo+1)
		win, wc := b[from:hi], c-from
		checkBandedAgainstRef(t, sub, &sc, a, win, wc, w)
		score, aEnd, bEnd := sub.BandedLocalScore(a, b, c, w, &sc)
		wScore, wAEnd, wBEnd := sub.BandedLocalScore(a, win, wc, w, &sc)
		if score > 0 {
			wBEnd += from
		}
		if wScore != score || wAEnd != aEnd || wBEnd != bEnd {
			t.Fatalf("window [%d,%d) of %d: score (%d,%d,%d), whole subject (%d,%d,%d)", from, hi, len(b), wScore, wAEnd, wBEnd, score, aEnd, bEnd)
		}
		want := sub.BandedLocal(a, b, c, w, &sc)
		got := sub.BandedLocal(a, win, wc, w, &sc)
		if got.Score > 0 {
			got.BStart += from
			got.BEnd += from
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("window [%d,%d) of %d:\n got %+v\nwant %+v", from, hi, len(b), got, want)
		}

		// The batch: b cut into 1 + off%MaxLanes overlapping windows,
		// lane l's band centred on c+l in b, each lane DeepEqual to its
		// BandedLocalScore, through BandedLocalScoreLanes and, where the
		// query fits it, through the vector batch itself.
		n := 1 + int(off)%MaxLanes
		windows, centres := make([][]byte, n), make([]int, n)
		lanes := make([]LaneScore, n)
		for l := range n {
			wf, wt := l*len(b)/(n+1), (l+2)*len(b)/(n+1)
			windows[l], centres[l] = b[wf:wt], c+l-wf
			lanes[l].Score, lanes[l].AEnd, lanes[l].BEnd = sub.BandedLocalScore(a, windows[l], centres[l], w, &sc)
		}
		batch := make([]LaneScore, n)
		sub.BandedLocalScoreLanes(a, windows, centres, w, &sc, batch)
		if !reflect.DeepEqual(batch, lanes) {
			t.Fatalf("BandedLocalScoreLanes of %d windows:\n got %v\nwant %v", n, batch, lanes)
		}
		if r, ok := vectorPass(); ok && sub.vectorLanes(&r, len(a), w) {
			vsc := BandedScratch{route: &r}
			sub.scoreLanes(&r, a, windows, centres, w, &vsc, batch)
			if !reflect.DeepEqual(batch, lanes) {
				t.Fatalf("the vector batch of %d windows:\n got %v\nwant %v", n, batch, lanes)
			}
		}
	})
}

// BenchmarkBandedKernels times the banded score and traceback passes
// through the scratch entry points, one sub-row per pass route (go,
// avx2-int32 and avx2, which runs every pass here in int16 lanes), at
// the shapes the service runs:
//   - band-600 and band-2000: the default band (49 wide) of a 600- and a
//     2 000-base homologous query against an 8 kb subject — the
//     tracebacks of a default query, and the score pass of its
//     homologs;
//   - band-random: the same band under a 1 000-base random query, a weak
//     hit whose row best rarely moves;
//   - band12-600 and band12-random: the same at band 12, rows of 25
//     cells;
//   - strip-150x700: 150 rows of a 150-base homologous read, 701 wide —
//     the order of an exact query's traceback strip for a weak hit;
//   - full-150x7000: the score pass over the whole matrix of a 150-base
//     read and a 7 kb subject — the exact route's tied-end pass.
//
// Then, on the AVX2 route, the vector batch: lanesN-L-bandB scores N
// windows against an L-base query (150, 600 and 2 000 bases) at band B
// (24 and 12) in one batch, beside single-L-bandB, the sixteen windows
// scored one at a time on the int16 pass; their ns/row is per
// candidate-row, the time over the rows of every window scored.
//
// Each row reports ns/row, the time per band row, beside cells/µs (as
// MB/s). The frozen reference implementations the kernels replaced run
// once, on band-600 ("ref").
func BenchmarkBandedKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	subject := randomSeq(rng, 8000)
	query := mutate(rng, subject[3000:3600], 0.1)
	long := mutate(rng, subject[3000:5000], 0.1)
	weak := randomSeq(rng, 1000)
	read := mutate(rng, subject[5000:5150], 0.08)
	s := DefaultScoring()
	sub := NewSubst(s)
	// run times fn, a pass over rows band rows of cells cells.
	run := func(name string, cells int64, rows int, fn func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(cells) // MB/s reads as cells/µs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
		})
	}
	bandRowsOf := func(la, lb, centre, band int) int {
		first, end := bandRows(la, lb, centre-band, 2*band+1)
		return end - first
	}
	strip := BandedCells(len(read), len(subject), 5000, 350)
	full := subject[:7000]
	for _, r := range passRoutes() {
		sc := BandedScratch{route: r}
		for _, q := range []struct {
			name string
			q    []byte
			band int
		}{{"band-600", query, 24}, {"band-2000", long, 24}, {"band-random", weak, 24}, {"band12-600", query, 12}, {"band12-random", weak, 12}} {
			cells, rows := BandedCells(len(q.q), len(subject), 3000, q.band), bandRowsOf(len(q.q), len(subject), 3000, q.band)
			run(r.name+"/score-"+q.name, cells, rows, func() { sub.BandedLocalScore(q.q, subject, 3000, q.band, &sc) })
			run(r.name+"/traceback-"+q.name, cells, rows, func() { sub.BandedLocal(q.q, subject, 3000, q.band, &sc) })
		}
		stripRows := bandRowsOf(len(read), len(subject), 5000, 350)
		run(r.name+"/score-strip-150x700", strip, stripRows, func() { sub.BandedLocalScore(read, subject, 5000, 350, &sc) })
		run(r.name+"/traceback-strip-150x700", strip, stripRows, func() { sub.BandedLocal(read, subject, 5000, 350, &sc) })
		run(r.name+"/score-full-150x7000", LocalCells(len(read), len(full)), len(read), func() { sub.LocalScore(read, full, &sc) })
	}
	// The vector batch against the single int16 pass, in ns per
	// candidate-row: n of 16 windows (homologs and random subjects in
	// turn) scored in one batch, and the 16 scored one at a time.
	if r, ok := vectorPass(); ok {
		for _, la := range []int{150, 600, 2000} {
			q := mutate(rng, subject[1000:1000+la], 0.1)[:la]
			for _, band := range []int{24, 12} {
				windows, centres := make([][]byte, MaxLanes), make([]int, MaxLanes)
				for l := range windows {
					s := randomSeq(rng, la+4*band)
					if l%2 == 0 {
						copy(s[band:], mutate(rng, q, 0.1))
					}
					windows[l], centres[l] = windowOf(s, band+rng.Intn(5)-2, band, la)
				}
				out := make([]LaneScore, MaxLanes)
				sc := BandedScratch{route: &r}
				name := fmt.Sprintf("%d-band%d", la, band)
				for _, n := range []int{1, 2, 4, 8, 16} {
					run(fmt.Sprintf("%s/lanes%d-%s", r.name, n, name), BandedCells(la, len(windows[0]), centres[0], band)*int64(n), la*n, func() {
						sub.scoreLanes(&r, q, windows[:n], centres[:n], band, &sc, out[:n])
					})
				}
				run(fmt.Sprintf("%s/single-%s", r.name, name), BandedCells(la, len(windows[0]), centres[0], band)*MaxLanes, la*MaxLanes, func() {
					for l, w := range windows {
						sub.BandedLocalScore(q, w, centres[l], band, &sc)
					}
				})
			}
		}
	}
	band := BandedCells(len(query), len(subject), 3000, 24)
	run("ref/score-band-600", band, len(query), func() { refBandedLocalScore(query, subject, 3000, 24, s) })
	run("ref/traceback-band-600", band, len(query), func() { refBandedLocal(query, subject, 3000, 24, s) })
}

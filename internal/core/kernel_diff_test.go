package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// tieFixture widens the standard fixture with the subjects and the query
// that make best cells tie across subject columns, so that the exact
// traceback's tie path — not only the unique-column hand-over the
// family members take — runs through the Searcher: "dup" holds the
// whole query twice (two best cells on one query row), "crossed" is its
// last 100 bases, noise, its first 100 (equal scores, and the later
// column holds the smaller query row — the cell align.Local ends at and
// not the one the striped pass sees first), and "lowcomplexity" holds a
// 300-base run of a 10-base unit that the second query repeats 12 times
// (a best cell every 10 columns).
func tieFixture(t *testing.T, seed int64) (f *fixture, queries [][]byte) {
	t.Helper()
	opts := index.Options{K: 9}
	f = makeFixture(t, seed, opts)
	rng := rand.New(rand.NewSource(seed + 1000))
	noise := func(n int) []byte {
		return gen.RandomSequence(rng, n, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
	}
	join := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	q := f.query
	unit := dna.MustEncode("AAAAAAAAAC")
	var run, lowQuery []byte
	for i := 0; i < 30; i++ {
		run = append(run, unit...)
	}
	for i := 0; i < 12; i++ {
		lowQuery = append(lowQuery, unit...)
	}
	f.store.Add("dup", join(noise(200), q, noise(150), q, noise(100)))
	// Each piece ends where the query or the subject does, so neither
	// extends by luck and the two score exactly alike.
	f.store.Add("crossed", join(q[len(q)-100:], noise(80), q[:100]))
	f.store.Add("lowcomplexity", join(noise(100), run, noise(100)))
	idx, err := index.Build(f.store, opts)
	if err != nil {
		t.Fatal(err)
	}
	f.idx = idx
	return f, [][]byte{q, lowQuery}
}

// stripedEnd re-runs the striped pass's hand-over for one reported
// result: the first subject column holding a best cell and whether it is
// the only one.
func stripedEnd(t *testing.T, s *Searcher, strand, subject []byte) (bEnd int, unique bool) {
	t.Helper()
	var sc align.StripedScratch
	_, bEnd, unique, ok := align.NewStripedProfile(strand, s.scoring).Score(subject, &sc)
	if !ok {
		t.Fatalf("a %d × %d pair exceeds the lanes: the fixture must stay inside the lanes", len(strand), len(subject))
	}
	return bEnd, unique
}

// TestFineKernelEquivalence is the end-to-end differential harness of
// the striped score pass: the same FineFull search run through the
// scalar fallback alone (the test-only Searcher.scalarFine) and through
// the striped route must return byte-identical result lists — scores,
// rankings, spans and transcripts — across every coarse mode and both
// strand settings, on a collection where the striped results reach
// their transcripts both ways: handed the one column holding every best
// cell, and through the scalar forward pass when best cells tie across
// columns.
func TestFineKernelEquivalence(t *testing.T) {
	f, queries := tieFixture(t, 61)
	s := newTestSearcher(t, f)

	modes := []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal}
	for _, mode := range modes {
		for _, both := range []bool{false, true} {
			byColumn, tied, crossed := 0, 0, 0
			for qi, query := range queries {
				opts := DefaultOptions()
				opts.CoarseMode = mode
				opts.FineMode = FineFull
				opts.BothStrands = both

				s.scalarFine = true
				var scalarStats SearchStats
				want, err := s.SearchWithStatsContext(context.Background(), query, opts, &scalarStats)
				s.scalarFine = false
				if err != nil {
					t.Fatalf("%v both=%v query %d scalar: %v", mode, both, qi, err)
				}

				var bvStats SearchStats
				got, err := s.SearchWithStatsContext(context.Background(), query, opts, &bvStats)
				if err != nil {
					t.Fatalf("%v both=%v query %d bitvector: %v", mode, both, qi, err)
				}

				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%v both=%v query %d: bitvector results differ from scalar\n got %+v\nwant %+v",
						mode, both, qi, got, want)
				}
				if len(want) == 0 {
					t.Fatalf("%v both=%v query %d: degenerate test, no results", mode, both, qi)
				}
				for _, r := range got {
					strand := query
					if r.Reverse {
						strand = dna.ReverseComplement(query)
					}
					if len(r.Alignment.Ops) == 0 {
						t.Fatalf("%v both=%v query %d: result %d has no transcript", mode, both, qi, r.ID)
					}
					switch bEnd, unique := stripedEnd(t, s, strand, f.store.Sequence(r.ID)); {
					case unique:
						byColumn++
					case bEnd != r.Alignment.BEnd:
						crossed++
					default:
						tied++
					}
				}

				// The kernels did the same logical work and counted
				// themselves truthfully.
				if scalarStats.BitvectorAlignments != 0 {
					t.Fatalf("scalar stats: bitvector alignments %d", scalarStats.BitvectorAlignments)
				}
				if bvStats.BitvectorAlignments != bvStats.FineAlignments {
					t.Fatalf("bitvector stats: %d of %d alignments used the kernel (unexpected fallback at these sizes)",
						bvStats.BitvectorAlignments, bvStats.FineAlignments)
				}
				if bvStats.FineAlignments != scalarStats.FineAlignments ||
					bvStats.FineDPCells != scalarStats.FineDPCells {
					t.Fatalf("kernels did different fine work: bitvector %d/%d cells, scalar %d/%d cells",
						bvStats.FineAlignments, bvStats.FineDPCells,
						scalarStats.FineAlignments, scalarStats.FineDPCells)
				}
			}
			if byColumn < 3 || tied < 2 || crossed < 1 {
				t.Fatalf("%v both=%v: %d results traced from their end column, %d through the tie fallback and %d of those ending in a later column than the striped pass saw — the collection must force all three",
					mode, both, byColumn, tied+crossed, crossed)
			}
		}
	}
}

// TestFineKernelCapacityFallback drives the per-candidate scalar
// fallback: a scoring whose values overflow the 16-bit lanes makes
// every pair exceed stripe capacity, so the search must fall back to the
// scalar kernel candidate by candidate and still return exactly what
// the scalar pass returns when asked first.
func TestFineKernelCapacityFallback(t *testing.T) {
	f := makeFixture(t, 63, index.Options{K: 9})
	huge := align.Scoring{Match: 20000, Mismatch: 4, GapOpen: 10, GapExtend: 2}
	s, err := NewSearcher(f.idx, f.store, huge)
	if err != nil {
		t.Fatal(err)
	}

	opts := DefaultOptions()
	opts.FineMode = FineFull
	opts.MinScore = 1

	s.scalarFine = true
	want, err := s.Search(f.query, opts)
	s.scalarFine = false
	if err != nil {
		t.Fatal(err)
	}
	var st SearchStats
	got, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback results differ:\n got %+v\nwant %+v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no results")
	}
	if st.BitvectorAlignments != 0 {
		t.Fatalf("%d alignments claimed the bitvector kernel despite lane overflow", st.BitvectorAlignments)
	}
	if st.FineAlignments == 0 {
		t.Fatal("no fine alignments ran")
	}
}

// TestFineKernelDegenerateInputs covers the FineFull fine phase's edge
// inputs: an all-N query (every interval is a wildcard; the coarse
// phase may admit nothing) and an empty candidate set forced by an
// unsatisfiable MinCoarseHits. The striped route and the scalar pass
// must agree and neither may panic.
func TestFineKernelDegenerateInputs(t *testing.T) {
	f := makeFixture(t, 64, index.Options{K: 9})
	s := newTestSearcher(t, f)

	allN := make([]byte, 120)
	for i := range allN {
		allN[i] = dna.WildN
	}
	var allNResults [2][]Result
	for i, scalar := range []bool{true, false} {
		s.scalarFine = scalar
		opts := DefaultOptions()
		opts.FineMode = FineFull
		rsN, errN := s.Search(allN, opts)
		if errN != nil {
			t.Fatalf("scalar=%v all-N: %v", scalar, errN)
		}
		allNResults[i] = rsN

		opts.MinCoarseHits = 1 << 20
		empty, err := s.Search(f.query, opts)
		if err != nil {
			t.Fatalf("scalar=%v empty candidates: %v", scalar, err)
		}
		if len(empty) != 0 {
			t.Fatalf("scalar=%v: %d results from an empty candidate set", scalar, len(empty))
		}
	}

	// Agreement on the all-N query, whatever it returns.
	if !reflect.DeepEqual(allNResults[1], allNResults[0]) {
		t.Fatalf("all-N query: kernels disagree\n got %+v\nwant %+v", allNResults[1], allNResults[0])
	}
}

// TestFineKernelCancellation extends the countdown-ctx coverage into
// the FineFull fine phase: cancellation observed between candidates
// and during the deferred full tracebacks must surface ctx.Err() with
// no partial results, and the searcher must stay usable.
func TestFineKernelCancellation(t *testing.T) {
	f := makeFixture(t, 65, index.Options{K: 9})
	s := newTestSearcher(t, f)

	opts := DefaultOptions()
	opts.FineMode = FineFull

	// Measure the poll budget of each stage from an uncancelled run:
	// 1 entry check + one per query term (coarse) + one per candidate
	// (fine) + one per deferred traceback.
	var st SearchStats
	results, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 || st.TracebackAlignments == 0 {
		t.Fatal("degenerate fixture: no deferred tracebacks to cancel")
	}
	coarsePolls := 1 + st.QueryTerms
	finePolls := st.CoarseCandidates

	cancelAt := map[string]int64{
		"mid-fine":      int64(coarsePolls + finePolls/2),
		"mid-traceback": int64(coarsePolls + finePolls + 1),
	}
	for name, allow := range cancelAt {
		ctx := newCountdownCtx(allow)
		rs, err := s.SearchWithStatsContext(ctx, f.query, opts, nil)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", name, err)
		}
		if rs != nil {
			t.Errorf("%s: cancelled search returned %d partial results", name, len(rs))
		}
		after, err := s.Search(f.query, opts)
		if err != nil || len(after) == 0 {
			t.Fatalf("%s: searcher unusable after cancellation: %v (%d results)", name, err, len(after))
		}
	}
}

// TestBandedFineCancellation does the same for the FineBanded fine
// phase, which scores the candidates in batches of up to align.MaxLanes
// and checks ctx before each batch: cancelled before a batch mid-fine,
// the search returns context.Canceled and no results, its stats show
// that it scored exactly the batches before that one, and the searcher
// answers the same query afterwards as it did before.
func TestBandedFineCancellation(t *testing.T) {
	f := batchFixture(t, 67)
	s := newTestSearcher(t, f)
	opts := DefaultOptions()

	var st SearchStats
	want, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	batches := (st.CoarseCandidates + align.MaxLanes - 1) / align.MaxLanes
	if len(want) == 0 || batches < 3 {
		t.Fatalf("degenerate fixture: %d candidates, %d results", st.CoarseCandidates, len(want))
	}
	for _, before := range []int{1, batches / 2, batches - 1} {
		// The entry check and one per query term pass, then one per
		// batch until the one of batch `before`.
		var got SearchStats
		rs, err := s.SearchWithStatsContext(newCountdownCtx(int64(1+st.QueryTerms+before)), f.query, opts, &got)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled before batch %d: err = %v, want context.Canceled", before, err)
		}
		if rs != nil {
			t.Errorf("cancelled before batch %d: %d partial results", before, len(rs))
		}
		if n := got.FineAlignments + got.PrescreenRejections; n != before*align.MaxLanes {
			t.Errorf("cancelled before batch %d: the fine phase scored %d candidates, want the %d of the batches before it", before, n, before*align.MaxLanes)
		}
		after, err := s.Search(f.query, opts)
		if err != nil || !reflect.DeepEqual(after, want) {
			t.Fatalf("cancelled before batch %d: the searcher answers differently afterwards (err %v)", before, err)
		}
	}
}

// TestFineKernelScratchHammer drives the pooled striped profile and
// kernel scratch across repeated searches on one searcher, both
// strands: the result must stay byte-identical to the scalar reference
// every iteration, so no state a search leaves in the scratch reaches
// the next one's answers.
func TestFineKernelScratchHammer(t *testing.T) {
	f := makeFixture(t, 66, index.Options{K: 9})
	s := newTestSearcher(t, f)

	ref := DefaultOptions()
	ref.FineMode = FineFull
	ref.BothStrands = true
	s.scalarFine = true
	want, err := s.Search(f.query, ref)
	s.scalarFine = false
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 25; i++ {
		got, err := s.Search(f.query, ref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: striped differs from scalar", i)
		}
	}
}

package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// randomFixture builds a small random database with a planted family
// and a homologous query, varying sizes and rates with the seed.
func randomFixture(t *testing.T, rng *rand.Rand) (*db.Store, *index.Index, []byte) {
	t.Helper()
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	root := gen.RandomSequence(rng, 400+rng.Intn(600), uniform, 0)
	model := gen.MutationModel{
		SubstitutionRate: 0.02 + rng.Float64()*0.10,
		InsertionRate:    0.01,
		DeletionRate:     0.01,
	}
	for i := 0; i < 3+rng.Intn(4); i++ {
		store.Add("family", gen.Mutate(rng, root, model))
	}
	for i := 0; i < 20+rng.Intn(40); i++ {
		store.Add("noise", gen.RandomSequence(rng, 200+rng.Intn(600), uniform, 0))
	}
	idx, err := index.Build(&store, index.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	return &store, idx, gen.Fragment(rng, root, 150+rng.Intn(100))
}

// TestStatsEquivalenceProperty pins the one nil left in the package:
// Search and Coarse hand the pipeline the searcher's own SearchStats,
// SearchWithStatsContext the caller's, and nothing else may differ. For
// random databases and queries, across every CoarseMode/FineMode
// combination, with and without prescreen, both strands and a parallel
// fine phase, the two forms return identical results — same IDs,
// scores, order, spans, transcripts — and the nil form allocates no
// more than the other (the substituted scratch must not escape to the
// heap).
func TestStatsEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1996))
	ctx := context.Background()
	for trial := 0; trial < 8; trial++ {
		store, idx, query := randomFixture(t, rng)
		for _, cm := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
			for _, fm := range []FineMode{FineFull, FineBanded} {
				opts := DefaultOptions()
				opts.CoarseMode = cm
				opts.FineMode = fm
				opts.MinCoarseHits = 1 + rng.Intn(2)
				opts.BothStrands = rng.Intn(2) == 0
				if rng.Intn(2) == 0 {
					opts.Prescreen = 40
				}
				if rng.Intn(2) == 0 {
					opts.FineWorkers = 4
				}

				// Fresh searchers so scratch-state reuse cannot leak
				// between the two runs.
				plain := newStatsTestSearcher(t, idx, store)
				instr := newStatsTestSearcher(t, idx, store)
				want, err := plain.Search(query, opts)
				if err != nil {
					t.Fatalf("trial %d %v/%v: %v", trial, cm, fm, err)
				}
				var st SearchStats
				got, err := instr.SearchWithStatsContext(ctx, query, opts, &st)
				if err != nil {
					t.Fatalf("trial %d %v/%v (stats): %v", trial, cm, fm, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d %v/%v: the two forms differ\nnil: %+v\n&st: %+v",
						trial, cm, fm, want, got)
				}
				checkStatsInvariants(t, &st, opts, want)

				// Serial only: a parallel fine phase's goroutines make the
				// count depend on the scheduler.
				if trial > 0 || opts.FineWorkers > 1 {
					continue
				}
				withNil := testing.AllocsPerRun(5, func() { plain.Search(query, opts) })
				withSt := testing.AllocsPerRun(5, func() { instr.SearchWithStatsContext(ctx, query, opts, &st) })
				if withNil > withSt {
					t.Errorf("%v/%v: Search allocates %.0f a call, SearchWithStatsContext(&st) %.0f", cm, fm, withNil, withSt)
				}
			}
		}
	}
}

func newStatsTestSearcher(t *testing.T, idx *index.Index, store *db.Store) *Searcher {
	t.Helper()
	s, err := NewSearcher(idx, store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkStatsInvariants asserts the structural relations every
// SearchStats must satisfy, whatever the workload.
func checkStatsInvariants(t *testing.T, st *SearchStats, opts Options, results []Result) {
	t.Helper()
	if st.FineAlignments > st.CoarseCandidates {
		t.Fatalf("FineAlignments %d > CoarseCandidates %d", st.FineAlignments, st.CoarseCandidates)
	}
	// Every admitted candidate is either prescreen-rejected or aligned.
	if st.FineAlignments+st.PrescreenRejections != st.CoarseCandidates {
		t.Fatalf("FineAlignments %d + PrescreenRejections %d != CoarseCandidates %d",
			st.FineAlignments, st.PrescreenRejections, st.CoarseCandidates)
	}
	if opts.Prescreen == 0 && st.PrescreenRejections != 0 {
		t.Fatalf("prescreen disabled but %d rejections", st.PrescreenRejections)
	}
	if st.PostingLists > st.QueryTerms {
		t.Fatalf("PostingLists %d > QueryTerms %d", st.PostingLists, st.QueryTerms)
	}
	if int64(st.CoarseSequences) > st.PostingsDecoded {
		t.Fatalf("CoarseSequences %d > PostingsDecoded %d", st.CoarseSequences, st.PostingsDecoded)
	}
	if st.FineAlignments > 0 && st.FineDPCells == 0 {
		t.Fatalf("%d fine alignments evaluated 0 DP cells", st.FineAlignments)
	}
	if st.TracebackAlignments > len(results) {
		t.Fatalf("TracebackAlignments %d > %d results", st.TracebackAlignments, len(results))
	}
	if st.Results != len(results) {
		t.Fatalf("Results %d != len(results) %d", st.Results, len(results))
	}
	wantStrands := 1
	if opts.BothStrands {
		wantStrands = 2
	}
	if st.Strands != wantStrands {
		t.Fatalf("Strands = %d, want %d", st.Strands, wantStrands)
	}
	checkDurationInvariants(t, st, opts)
}

func checkDurationInvariants(t *testing.T, st *SearchStats, opts Options) {
	t.Helper()
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"CoarseTime", st.CoarseTime},
		{"PrescreenTime", st.PrescreenTime},
		{"FineTime", st.FineTime},
		{"TracebackTime", st.TracebackTime},
		{"TotalTime", st.TotalTime},
	} {
		if d.v < 0 {
			t.Fatalf("%s negative: %v", d.name, d.v)
		}
	}
	if st.TotalTime == 0 {
		t.Fatal("TotalTime is zero")
	}
	// The stage clocks are disjoint sub-intervals of the total, so
	// they sum to at most the total; the remainder (ranking, strand
	// merging, result assembly) is small.
	if st.StageTime() > st.TotalTime {
		t.Fatalf("stage times %v exceed total %v", st.StageTime(), st.TotalTime)
	}
	if gap := st.TotalTime - st.StageTime(); gap > st.TotalTime/2+100*time.Millisecond {
		t.Fatalf("stages %v account for too little of total %v", st.StageTime(), st.TotalTime)
	}
	// Per-candidate prescreen clocks are subsets of the fine phase;
	// only a parallel fine phase can sum past its wall clock.
	if opts.FineWorkers <= 1 && st.PrescreenTime > st.FineTime {
		t.Fatalf("serial PrescreenTime %v > FineTime %v", st.PrescreenTime, st.FineTime)
	}
}

// TestStatsResetZeroes is the satellite invariant: a reset stats
// struct is indistinguishable from a fresh one.
func TestStatsResetZeroes(t *testing.T) {
	f := makeFixture(t, 17, index.Options{K: 9})
	s := newTestSearcher(t, f)
	var st SearchStats
	if _, err := s.SearchWithStatsContext(context.Background(), f.query, DefaultOptions(), &st); err != nil {
		t.Fatal(err)
	}
	if st.PostingsDecoded == 0 || st.TotalTime == 0 {
		t.Fatalf("search collected nothing: %+v", st)
	}
	st.Reset()
	if st != (SearchStats{}) {
		t.Fatalf("Reset left state behind: %+v", st)
	}
}

// TestStatsResetBetweenSearches: a search resets the struct, so
// reusing one across queries reports per-query (not cumulative) work.
func TestStatsResetBetweenSearches(t *testing.T) {
	f := makeFixture(t, 23, index.Options{K: 9})
	s := newTestSearcher(t, f)
	var st SearchStats
	if _, err := s.SearchWithStatsContext(context.Background(), f.query, DefaultOptions(), &st); err != nil {
		t.Fatal(err)
	}
	first := st
	if _, err := s.SearchWithStatsContext(context.Background(), f.query, DefaultOptions(), &st); err != nil {
		t.Fatal(err)
	}
	if st.PostingsDecoded != first.PostingsDecoded || st.CoarseCandidates != first.CoarseCandidates {
		t.Fatalf("same query, different work: first %+v, second %+v", first, st)
	}
}

// TestStatsAdd: aggregation is field-wise addition.
func TestStatsAdd(t *testing.T) {
	f := makeFixture(t, 29, index.Options{K: 9})
	s := newTestSearcher(t, f)
	var st, agg SearchStats
	const n = 3
	for i := 0; i < n; i++ {
		if _, err := s.SearchWithStatsContext(context.Background(), f.query, DefaultOptions(), &st); err != nil {
			t.Fatal(err)
		}
		agg.Add(st)
	}
	if agg.PostingsDecoded != n*st.PostingsDecoded {
		t.Fatalf("aggregated PostingsDecoded %d, want %d", agg.PostingsDecoded, n*st.PostingsDecoded)
	}
	if agg.Strands != n {
		t.Fatalf("aggregated Strands %d, want %d", agg.Strands, n)
	}
	if agg.DPCells() != n*st.DPCells() {
		t.Fatalf("aggregated DPCells %d, want %d", agg.DPCells(), n*st.DPCells())
	}
}

// TestStatsCountsRealWork sanity-checks the headline counters against
// the fixture: a homologous query must decode postings, admit
// candidates, and align some of the database.
func TestStatsCountsRealWork(t *testing.T) {
	f := makeFixture(t, 31, index.Options{K: 9})
	s := newTestSearcher(t, f)
	var st SearchStats
	rs, err := s.SearchWithStatsContext(context.Background(), f.query, DefaultOptions(), &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if st.QueryTerms == 0 || st.PostingLists == 0 || st.PostingsDecoded == 0 {
		t.Fatalf("coarse phase counted no work: %+v", st)
	}
	if st.PostingsBytesRead == 0 {
		t.Fatal("no postings bytes accounted")
	}
	if st.CoarseCandidates == 0 || st.FineAlignments == 0 || st.FineDPCells == 0 {
		t.Fatalf("fine phase counted no work: %+v", st)
	}
	if st.TracebackAlignments == 0 || st.TracebackDPCells == 0 {
		t.Fatalf("tracebacks counted no work: %+v", st)
	}
}

// TestStatsPostingsMatchIndexWalk pins the coarse work counters to an
// independent walk of the index: for each strand, the query's distinct
// terms; for each segment, the lists those terms have there, their
// compressed bytes and the entries they hold. These are the quantities
// the bench's per-layer budget divides coarse time by, so a rebuilt
// decode loop has to keep them exact.
func TestStatsPostingsMatchIndexWalk(t *testing.T) {
	f := makeFixture(t, 47, index.Options{K: 9})
	rng := rand.New(rand.NewSource(48))
	for _, nseg := range []int{1, 3} {
		segs := []Segment{{Index: f.idx}}
		if nseg > 1 {
			segs = splitSegments(t, f, rng, nseg)
		}
		s, err := NewSegmentedSearcher(segs, f.store, align.DefaultScoring(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, both := range []bool{false, true} {
			opts := DefaultOptions()
			opts.BothStrands = both
			var st SearchStats
			if _, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st); err != nil {
				t.Fatalf("segments=%d both=%v: %v", nseg, both, err)
			}

			strands := [][]byte{f.query}
			if both {
				strands = append(strands, dna.ReverseComplement(f.query))
			}
			var terms, lists int
			var decoded, bytes int64
			var it postings.Iterator
			for _, q := range strands {
				distinct := map[kmer.Term]bool{}
				for _, term := range f.idx.Coder().Extract(nil, q) {
					distinct[term] = true
				}
				terms += len(distinct)
				for _, sg := range segs {
					for term := range distinct {
						df, b := sg.Index.ReaderStats(term, &it)
						if df == 0 {
							continue
						}
						lists++
						bytes += int64(b)
						for it.Next() {
							decoded++
						}
						if err := it.Err(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if decoded == 0 || bytes == 0 {
				t.Fatalf("segments=%d both=%v: the reference walk read nothing", nseg, both)
			}
			for _, c := range []struct {
				name      string
				got, want int64
			}{
				{"QueryTerms", int64(st.QueryTerms), int64(terms)},
				{"PostingLists", int64(st.PostingLists), int64(lists)},
				{"PostingsDecoded", st.PostingsDecoded, decoded},
				{"PostingsBytesRead", st.PostingsBytesRead, bytes},
			} {
				if c.got != c.want {
					t.Errorf("segments=%d both=%v: %s = %d, index walk says %d", nseg, both, c.name, c.got, c.want)
				}
			}
		}
	}
}

// TestStatsCellsMatchKernelWork pins the two cell counters to the
// matrices the kernels walk (align's own tests pin BandedCells and
// TraceCells to the cells a kernel writes). With MinScore 0 and no limit
// every candidate is a result. Banded: the fine counter is the sum of
// the full-query bands; the traceback counter is the sum of the bands
// cut at each alignment's end row, which is what the truncated traceback
// computes. Full, by the striped route or by the scalar pass alone (the
// test-only scalarFine): the fine counter is the sum of the whole
// matrices; the traceback counter is the sum of the strips
// align.LocalEndingAt traces — from the end cell after the scalar pass,
// from the end column after the striped one — plus one more whole
// matrix for each result whose best cells tie across columns, the scalar
// forward pass that finds which of them align.Local ends at. The striped
// route scores every alignment in the lanes, the scalar pass none.
func TestStatsCellsMatchKernelWork(t *testing.T) {
	f, queries := tieFixture(t, 43)
	s := newTestSearcher(t, f)
	query := queries[0]
	search := func(mode FineMode, scalar bool) ([]Result, SearchStats) {
		t.Helper()
		s.scalarFine = scalar
		defer func() { s.scalarFine = false }()
		opts := DefaultOptions()
		opts.FineMode = mode
		opts.MinScore, opts.Limit = 0, 0
		var st SearchStats
		rs, err := s.SearchWithStatsContext(context.Background(), query, opts, &st)
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != st.CoarseCandidates || len(rs) == 0 {
			t.Fatalf("%v scalar=%v: %d results for %d candidates: the fixture must report every candidate", mode, scalar, len(rs), st.CoarseCandidates)
		}
		return rs, st
	}
	check := func(name string, st SearchStats, fine, traceback int64) {
		t.Helper()
		if st.FineDPCells != fine {
			t.Errorf("%s: FineDPCells = %d, want %d", name, st.FineDPCells, fine)
		}
		if st.TracebackDPCells != traceback {
			t.Errorf("%s: TracebackDPCells = %d, want %d", name, st.TracebackDPCells, traceback)
		}
	}

	band := DefaultOptions().Band
	rs, st := search(FineBanded, false)
	var fine, traceback, untruncated int64
	for i, r := range rs {
		subject := f.store.Sequence(r.ID)
		centre := s.recs[i].centre // the reported records, in rank order
		cells := align.BandedCells(len(query), len(subject), centre, band)
		fine += cells
		if r.Score > 0 { // score-0 candidates have no alignment to trace
			traceback += align.BandedCells(r.Alignment.AEnd, len(subject), centre, band)
			untruncated += cells
		}
	}
	check("banded", st, fine, traceback)
	if traceback >= untruncated {
		t.Errorf("truncation saved nothing: %d cells against %d untruncated — the fixture no longer exercises it", traceback, untruncated)
	}

	for _, scalar := range []bool{true, false} {
		rs, st := search(FineFull, scalar)
		var fine, traceback int64
		ties := 0
		for _, r := range rs {
			subject := f.store.Sequence(r.ID)
			matrix := align.LocalCells(len(query), len(subject))
			fine += matrix
			if r.Score == 0 {
				continue
			}
			aEnd, bEnd := r.Alignment.AEnd, r.Alignment.BEnd
			if !scalar {
				if col, unique := stripedEnd(t, s, query, subject); unique {
					aEnd, bEnd = 0, col // handed the column alone
				} else {
					ties++
					traceback += matrix
				}
			}
			traceback += s.subst.TraceCells(len(query), r.Score, aEnd, bEnd)
		}
		name, lanes := "full/striped", st.FineAlignments
		if scalar {
			name, lanes = "full/scalar", 0
		}
		check(name, st, fine, traceback)
		if st.BitvectorAlignments != lanes {
			t.Errorf("%s: BitvectorAlignments = %d, want %d of %d fine alignments", name, st.BitvectorAlignments, lanes, st.FineAlignments)
		}
		if !scalar && (ties == 0 || ties == len(rs)) {
			t.Errorf("%d of %d striped results tied: the fixture must bill both hand-overs", ties, len(rs))
		}
	}
}

// TestStatsPrescreenAccounting: with a prohibitive prescreen threshold
// every candidate is rejected and no fine alignment runs.
func TestStatsPrescreenAccounting(t *testing.T) {
	f := makeFixture(t, 37, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Prescreen = 1 << 28
	var st SearchStats
	rs, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Fatalf("prohibitive prescreen returned %d results", len(rs))
	}
	if st.FineAlignments != 0 {
		t.Fatalf("prescreen passed %d candidates", st.FineAlignments)
	}
	if st.PrescreenRejections != st.CoarseCandidates || st.CoarseCandidates == 0 {
		t.Fatalf("rejections %d != candidates %d", st.PrescreenRejections, st.CoarseCandidates)
	}
}

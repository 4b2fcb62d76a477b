package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// checkWholeSubject holds a banded search's results, which the fine
// phase scored and traced over each candidate's band window, to the
// banded kernels run here over the whole stored subject at the same
// centre: the reported record's score and end cell are
// align.BandedLocalScore's, and its alignment — spans in subject
// coordinates, transcript and counters — is align.BandedLocal's over
// the query up to that end. s.recs[:len(got)] are the reported records.
func checkWholeSubject(t *testing.T, name string, s *Searcher, store *db.Store, query []byte, band int, got []Result) {
	t.Helper()
	rc := dna.ReverseComplement(query)
	for i, r := range got {
		rec := s.recs[i]
		q := query
		if rec.reverse {
			q = rc
		}
		whole := store.Sequence(rec.id)
		score, aEnd, bEnd := align.BandedLocalScore(q, whole, rec.centre, band, s.scoring)
		if r.ID != rec.id || r.Score != score || rec.aEnd != aEnd || rec.bEnd != bEnd {
			t.Fatalf("%s: result %d (sequence %d, centre %d): windowed score %d ending (%d,%d), whole subject %d ending (%d,%d)",
				name, i, rec.id, rec.centre, r.Score, rec.aEnd, rec.bEnd, score, aEnd, bEnd)
		}
		var want align.Alignment
		if score > 0 {
			want = align.BandedLocal(q[:aEnd], whole, rec.centre, band, s.scoring)
		}
		if !reflect.DeepEqual(r.Alignment, want) {
			t.Fatalf("%s: result %d (sequence %d): windowed alignment\n got %+v\nwant %+v", name, i, rec.id, r.Alignment, want)
		}
	}
}

// TestBatchedBandedMatchesScalar holds the banded fine phase, which
// scores the candidates in batches of up to align.MaxLanes, each over
// its band's window of the subject, to the whole subject: every
// reported record's score, end and alignment are the banded kernels'
// over the whole stored sequence (checkWholeSubject). The grid covers
// every coarse mode (centres from the coarse walk under CoarseDiagonal,
// from the seed hand-over otherwise), both strands and the prescreen,
// over one segment, three with tombstones and a paged index, and then,
// on batchFixture, the candidate budgets at the edges of the fine
// phase's batches.
func TestBatchedBandedMatchesScalar(t *testing.T) {
	f, queries := handOverFixture(t, 730, index.Options{K: 9})
	layouts := segmentations(t, f, rand.New(rand.NewSource(731)))
	for layout, s := range layouts {
		for qname, q := range queries {
			for _, cm := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
				for _, both := range []bool{false, true} {
					for _, prescreen := range []int{0, 30} {
						opts := DefaultOptions()
						opts.CoarseMode = cm
						opts.BothStrands, opts.Prescreen = both, prescreen
						opts.MinScore, opts.Limit = 0, 0 // every candidate's score and end reach the list
						name := fmt.Sprintf("%s %s %+v", layout, qname, opts)
						got, err := s.Search(q, opts)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if len(got) == 0 {
							t.Fatalf("%s: no results", name)
						}
						checkWholeSubject(t, name, s, f.store, q, opts.Band, got)
					}
				}
			}
		}
	}

	// Candidate budgets of 1, 15, 16, 17 and 100: one batch of one lane,
	// one batch short of full, one full, one full and one alone, six
	// full and a partial one, on both strands.
	f = batchFixture(t, 737)
	layouts = segmentations(t, f, rand.New(rand.NewSource(738)))
	for layout, s := range layouts {
		for _, candidates := range []int{1, 15, 16, 17, 100} {
			for _, prescreen := range []int{0, 30} {
				opts := DefaultOptions()
				opts.Candidates, opts.BothStrands, opts.Prescreen = candidates, true, prescreen
				opts.MinScore, opts.Limit = 0, 0
				name := fmt.Sprintf("%s, %d candidates, prescreen %d", layout, candidates, prescreen)
				var st SearchStats
				got, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if st.CoarseCandidates != 2*candidates {
					t.Fatalf("%s: %d candidates over both strands, want %d: the fixture must fill the budget", name, st.CoarseCandidates, 2*candidates)
				}
				if len(got) == 0 {
					t.Fatalf("%s: no results", name)
				}
				checkWholeSubject(t, name, s, f.store, f.query, opts.Band, got)
			}
		}
	}
}

// batchFixture is a collection in which a 250-base query has more than
// 100 candidates on each strand: 30 homologs of the sequence the query
// is cut from and 300 random sequences, each holding a mutated 50-base
// piece of the query or of its reverse complement, so that the fine
// phase's batches of align.MaxLanes run full, partial and alone.
func batchFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	root := gen.RandomSequence(rng, 800, uniform, 0)
	query := gen.Fragment(rng, root, 250)
	rc := dna.ReverseComplement(query)
	var store db.Store
	family := map[int]bool{}
	model := gen.MutationModel{SubstitutionRate: 0.08, InsertionRate: 0.01, DeletionRate: 0.01}
	for i := 0; i < 30; i++ {
		family[store.Add("family", gen.Mutate(rng, root, model))] = true
	}
	for i := 0; i < 300; i++ {
		seq := gen.RandomSequence(rng, 300+rng.Intn(400), uniform, 0.002)
		src := query
		if i%2 == 1 {
			src = rc
		}
		at := rng.Intn(len(src) - 50)
		piece := gen.Mutate(rng, src[at:at+50], gen.MutationModel{SubstitutionRate: 0.03})
		copy(seq[rng.Intn(len(seq)-len(piece)):], piece)
		store.Add("piece", seq)
	}
	idx, err := index.Build(&store, index.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: &store, idx: idx, query: query, family: family}
}

// TestBatchedBandedReportsTranscripts: on a collection of long subjects
// whose homologs sit deep inside them, the reported results' spans are
// in subject coordinates and their transcripts are the whole-subject
// traceback's, read back from the window the traceback decoded.
func TestBatchedBandedReportsTranscripts(t *testing.T) {
	rng := rand.New(rand.NewSource(732))
	f := makeFixture(t, 733, index.Options{K: 9})
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	for i := 0; i < 12; i++ {
		// The query's homolog 3–9 kb into a 12 kb subject.
		at := 3000 + rng.Intn(6000)
		seq := gen.RandomSequence(rng, 12000, uniform, 0.002)
		copy(seq[at:], gen.Mutate(rng, f.query, gen.MutationModel{SubstitutionRate: 0.05}))
		f.store.Add("deep", seq)
	}
	idx, err := index.Build(f.store, f.idx.Options())
	if err != nil {
		t.Fatal(err)
	}
	f.idx = idx
	s := newTestSearcher(t, f)
	for _, q := range [][]byte{f.query, dna.ReverseComplement(f.query)} {
		opts := DefaultOptions()
		opts.BothStrands = true
		got, err := s.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkWholeSubject(t, "deep homologs", s, f.store, q, opts.Band, got)
		deep := 0
		for _, r := range got {
			if r.Alignment.BStart >= 3000 && len(r.Alignment.Ops) > 0 {
				deep++
			}
		}
		if deep < 10 {
			t.Fatalf("%d results with a transcript past base 3000: the fixture must place its homologs deep", deep)
		}
	}
}

// TestBatchedBandedHammer drives the fine phase's scratch — kernel rows
// and window reads — hard: both strands, the prescreen, every query
// searched repeatedly on one searcher between the others, each answer
// byte-identical to a fresh searcher's, which is held to the whole
// subject.
func TestBatchedBandedHammer(t *testing.T) {
	f, queries := handOverFixture(t, 734, index.Options{K: 9})
	opts := DefaultOptions()
	opts.BothStrands, opts.Prescreen, opts.MinScore = true, 20, 0
	hammerBanded(t, f, queries, opts)

	// The batch fixture at each candidate budget of
	// TestBatchedBandedMatchesScalar's batch grid, the budgets searched
	// in turn on one searcher.
	f = batchFixture(t, 739)
	opts.MinScore = 0
	s := newTestSearcher(t, f)
	for _, candidates := range []int{1, 15, 16, 17, 100} {
		opts.Candidates = candidates
		fresh := newTestSearcher(t, f)
		want, err := fresh.Search(f.query, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkWholeSubject(t, fmt.Sprint(candidates, " candidates"), fresh, f.store, f.query, opts.Band, want)
		for i := 0; i < 3; i++ {
			for _, other := range []int{1, 100, candidates} {
				opts.Candidates = other
				if _, err := s.Search(f.query, opts); err != nil {
					t.Fatal(err)
				}
			}
			got, err := s.Search(f.query, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%d candidates, iteration %d: the reused searcher differs from a fresh one", candidates, i)
			}
		}
	}
}

// hammerBanded searches every query ten times on one searcher, between
// the others, and holds each answer byte-identical to a fresh
// searcher's, which is held to the whole subject.
func hammerBanded(t *testing.T, f *fixture, queries map[string][]byte, opts Options) {
	t.Helper()
	s := newTestSearcher(t, f)
	for qname, q := range queries {
		fresh := newTestSearcher(t, f)
		want, err := fresh.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		checkWholeSubject(t, qname, fresh, f.store, q, opts.Band, want)
		for i := 0; i < 10; i++ {
			got, err := s.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s iteration %d: the reused searcher differs from a fresh one", qname, i)
			}
		}
	}
}

// TestFineWindowHoldsTheBand scores records through the fine phase, one
// alone and then in batches as the fine loop takes them, with band
// centres that put a perfect match of the query on every diagonal of
// the band, its edges included, and just outside it, on subjects where
// the match sits mid-sequence, at the start and at the end. Each record's score and end must be the banded kernel's over
// the whole subject: a window one base short on either side loses the
// match's first or last cell when it lies on the band's edge diagonal.
func TestFineWindowHoldsTheBand(t *testing.T) {
	rng := rand.New(rand.NewSource(736))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	query := gen.RandomSequence(rng, 200, uniform, 0)
	var store db.Store
	at := []int{300, 0, 300} // the match's diagonal in each subject
	for i, d := range at {
		tail := 300
		if i == 2 {
			tail = 0 // the match ends the subject
		}
		seq := append(append(gen.RandomSequence(rng, d, uniform, 0), query...), gen.RandomSequence(rng, tail, uniform, 0)...)
		store.Add("subject", seq)
	}
	idx, err := index.Build(&store, index.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	for id, d := range at {
		whole := store.Sequence(id)
		var recs []candRec
		for centre := d - opts.Band - 2; centre <= d+opts.Band+2; centre++ {
			recs = append(recs, candRec{id: id, centre: centre})
		}
		// One record alone, then batches as the fine phase takes them.
		s.fine(query, recs[:1], opts)
		for start := 0; start < len(recs); start += align.MaxLanes {
			s.fine(query, recs[start:min(start+align.MaxLanes, len(recs))], opts)
		}
		for _, r := range recs {
			score, aEnd, bEnd := align.BandedLocalScore(query, whole, r.centre, opts.Band, s.scoring)
			if r.score != score || r.aEnd != aEnd || r.bEnd != bEnd {
				t.Fatalf("subject %d, match on diagonal %d, centre %d: fine phase (%d,%d,%d), whole subject (%d,%d,%d)",
					id, d, r.centre, r.score, r.aEnd, r.bEnd, score, aEnd, bEnd)
			}
		}
	}
}

// TestBandWindow pins the window arithmetic: the band's cells over the
// rows, clipped to the subject, and empty (from = to) when the band
// misses it on either side.
func TestBandWindow(t *testing.T) {
	for _, c := range []struct{ centre, band, rows, n, from, to int }{
		{100, 24, 250, 1000, 76, 374},
		{10, 24, 250, 1000, 0, 284},
		{900, 24, 250, 1000, 876, 1000},
		{-300, 24, 250, 1000, 0, 0},
		{1100, 24, 250, 1000, 1000, 1000},
		{0, 0, 1, 1, 0, 1},
		{5, 3, 10, 0, 0, 0},
	} {
		if from, to := bandWindow(c.centre, c.band, c.rows, c.n); from != c.from || to != c.to {
			t.Errorf("bandWindow(%d, %d, %d, %d) = [%d,%d), want [%d,%d)", c.centre, c.band, c.rows, c.n, from, to, c.from, c.to)
		}
	}
}

// retainedBytes is the memory v holds through its slices, and through
// pointers, structs and arrays to them: each slice's capacity.
func retainedBytes(v reflect.Value) int {
	n := 0
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			n = retainedBytes(v.Elem())
		}
	case reflect.Struct:
		for i := range v.NumField() {
			n += retainedBytes(v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			n += retainedBytes(v.Index(i))
		}
	case reflect.Slice:
		n = v.Cap() * int(v.Type().Elem().Size())
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Struct, reflect.Array, reflect.Slice:
			for i := range v.Len() {
				n += retainedBytes(v.Index(i))
			}
		}
	}
	return n
}

// TestLongQueryLeavesScratchBounded runs one 60 000-base query against
// eight homologs and then bounds what the searcher's scratch keeps for
// its next query: a read buffer of at most maxPooledSeq, a direction
// matrix of at most align's 1 MiB cap, and the band's rows. The query's
// band windows and traceback matrices are larger than those caps, so
// nothing sized by the query may stay. Then a query at a wide band runs
// the batch over transposed windows past their cap, which stay neither.
func TestLongQueryLeavesScratchBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(735))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	root := gen.RandomSequence(rng, 60000, uniform, 0)
	var store db.Store
	for i := 0; i < 8; i++ {
		store.Add("homolog", gen.Mutate(rng, root, gen.MutationModel{SubstitutionRate: 0.05}))
	}
	for i := 0; i < 20; i++ {
		store.Add("noise", gen.RandomSequence(rng, 2000, uniform, 0))
	}
	idx, err := index.Build(&store, index.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	got, err := s.Search(root, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 8 || len(got[7].Alignment.Ops) < len(root) {
		t.Fatalf("%d results: the fixture must trace its eight homologs end to end", len(got))
	}
	const maxPooledDir = 1 << 20 // align.maxPooledDir
	bound := maxPooledSeq + maxPooledDir + 64*(2*opts.Band+2)
	if n := retainedBytes(reflect.ValueOf(s.scratch)); n > bound {
		t.Errorf("the searcher keeps %d bytes of scratch after a %d-base query, want at most %d", n, len(root), bound)
	}

	// A 3 000-base query at band 1 000 scores its candidates on the
	// vector batch (in int16 lanes) where this CPU has one, over
	// transposed windows of 5 000 positions of align.MaxLanes bytes,
	// past the 64 KiB the scratch keeps of them. The batch's rows are
	// two of align.MaxLanes int16 cells a band column.
	opts.Band = 1000
	if _, err := s.Search(root[:3000], opts); err != nil {
		t.Fatal(err)
	}
	const maxPooledCols = 1 << 16 // align.maxPooledCols
	bound = maxPooledSeq + maxPooledDir + 64*(2*opts.Band+2) + 4*align.MaxLanes*(2*opts.Band+5)
	if n := retainedBytes(reflect.ValueOf(s.scratch)); n > bound {
		t.Errorf("the searcher keeps %d bytes of scratch after a 3 000-base query at band %d, want at most %d", n, opts.Band, bound)
	}
	if n := reflect.ValueOf(s.scratch).FieldByName("banded").FieldByName("cols").Cap(); n > maxPooledCols {
		t.Errorf("the searcher keeps %d bytes of transposed windows after a 3 000-base query at band %d, want at most %d", n, opts.Band, maxPooledCols)
	}
}

package core

import (
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

// TestBatchedBandedMatchesScalar holds the banded fine phase,
// which scores each candidate alone over its band's window of the
// subject, to the whole subject: every reported record's score, end and
// alignment are the banded kernels' over the whole stored sequence
// (checkWholeSubject). The grid covers every coarse mode (centres from
// the coarse walk under CoarseDiagonal, from the seed hand-over
// otherwise), both strands and the prescreen, over one segment, three
// with tombstones and a paged index. The name dates from the byte-lane batch, which this test held
// to a scalar route; both are gone and the reference is now computed here.
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
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.BothStrands, opts.Prescreen, opts.MinScore = true, 20, 0
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

// TestFineWindowHoldsTheBand scores single records through the fine
// phase with band centres that put a perfect match of the query on
// every diagonal of the band, its edges included, and just outside it,
// on subjects where the match sits mid-sequence, at the start and at
// the end. Each record's score and end must be the banded kernel's over
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
		for centre := d - opts.Band - 2; centre <= d+opts.Band+2; centre++ {
			r := candRec{id: id, centre: centre}
			s.fine(query, &r, opts)
			score, aEnd, bEnd := align.BandedLocalScore(query, whole, centre, opts.Band, s.scoring)
			if r.score != score || r.aEnd != aEnd || r.bEnd != bEnd {
				t.Fatalf("subject %d, match on diagonal %d, centre %d: fine phase (%d,%d,%d), whole subject (%d,%d,%d)",
					id, d, centre, r.score, r.aEnd, r.bEnd, score, aEnd, bEnd)
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
// matrix of at most align's 1 MiB cap, and the band's rows. The query's band windows and traceback matrices are
// larger than those caps, so nothing sized by the query may stay.
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
}

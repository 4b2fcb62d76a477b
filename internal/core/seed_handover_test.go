package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// handOverFixture is makeFixture's collection plus the shapes that make
// postings unlike a plain random collection: tandem repeats (one term,
// many offsets per posting), a poly-A stretch, and wildcard bases.
// Queries hold a homologous fragment, a random sequence, a repeat, and
// the homolog with N bases in it.
func handOverFixture(t testing.TB, seed int64, opts index.Options) (*fixture, map[string][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	family := map[int]bool{}
	root := gen.RandomSequence(rng, 800, uniform, 0)
	model := gen.MutationModel{SubstitutionRate: 0.06, InsertionRate: 0.01, DeletionRate: 0.01}
	for i := 0; i < 6; i++ {
		family[store.Add("family", gen.Mutate(rng, root, model))] = true
	}
	unit := gen.RandomSequence(rng, 7, uniform, 0)
	for i := 0; i < 40; i++ {
		seq := gen.RandomSequence(rng, 300+rng.Intn(700), uniform, 0)
		switch i % 4 {
		case 1: // a tandem repeat of unit
			at := rng.Intn(len(seq) - 150)
			for j := 0; j < 150; j++ {
				seq[at+j] = unit[j%len(unit)]
			}
		case 2: // a poly-A stretch
			at := rng.Intn(len(seq) - 60)
			clear(seq[at : at+60])
		case 3: // scattered wildcards
			for j := 0; j < 10; j++ {
				seq[rng.Intn(len(seq))] = dna.WildN
			}
		}
		store.Add("noise", seq)
	}
	idx, err := index.Build(&store, opts)
	if err != nil {
		t.Fatal(err)
	}
	query := gen.Fragment(rng, root, 250)
	withN := append([]byte(nil), query...)
	for j := 0; j < 8; j++ {
		withN[rng.Intn(len(withN))] = dna.WildN
	}
	repeat := make([]byte, 120)
	for j := range repeat {
		repeat[j] = unit[j%len(unit)]
	}
	return &fixture{store: &store, idx: idx, query: query, family: family}, map[string][]byte{
		"homolog": query,
		"random":  gen.RandomSequence(rng, 300, uniform, 0),
		"repeat":  repeat,
		"with-N":  withN,
	}
}

// handOverIndexes are the interval shapes the hand-over is held to:
// three contiguous lengths and a spaced seed, all with offsets.
var handOverIndexes = []index.Options{
	{K: 4, StoreOffsets: true},
	{K: 9, StoreOffsets: true},
	{K: 12, StoreOffsets: true},
	{SpacedMask: "1110110101101", StoreOffsets: true},
}

// segmentations returns the searchers over f the equivalence tests
// compare: monolithic, three segments with tombstones, and the paged
// (disk-read) index.
func segmentations(t *testing.T, f *fixture, rng *rand.Rand) map[string]*Searcher {
	t.Helper()
	out := map[string]*Searcher{"mono": newTestSearcher(t, f)}
	segs := splitSegments(t, f, rng, 3)
	for i := range segs {
		i := i
		segs[i].Deleted = func(local int) bool { return (local+i)%5 == 2 }
	}
	split, err := NewSegmentedSearcher(segs, f.store, align.DefaultScoring(), nil)
	if err != nil {
		t.Fatal(err)
	}
	out["3-segments"] = split
	path := filepath.Join(t.TempDir(), "idx")
	var buf bytes.Buffer
	if err := f.idx.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	paged, err := index.OpenDisk(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { paged.Close() })
	if out["paged"], err = NewSearcher(paged, f.store, align.DefaultScoring()); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkHandOver runs a seeded coarse call for query and holds every
// admitted candidate's handed-over seed to bestSeed's. It returns the
// number of candidates compared.
func checkHandOver(t testing.TB, s *Searcher, query []byte, mode CoarseMode, name string) int {
	t.Helper()
	var st SearchStats
	cands, handed, err := s.coarse(context.Background(), query, mode, 1, 100, true, &st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !handed || len(s.log.seeds) != len(cands) {
		t.Fatalf("%s: %d candidates, hand-over %v with %d seeds", name, len(cands), handed, len(s.log.seeds))
	}
	sc := newSeedScratch()
	for i, c := range cands {
		want, wantOK := s.bestSeed(s.coder, s.src.Sequence(c.ID), sc)
		if got := s.log.seeds[i]; got.hit != want || got.ok != wantOK {
			t.Fatalf("%s: candidate %d (seq %d): hand-over (%+v,%v), bestSeed (%+v,%v)",
				name, i, c.ID, got.hit, got.ok, want, wantOK)
		}
	}
	return len(cands)
}

// TestSeedHandOverMatchesBestSeed: for every admitted candidate, the
// seed read from the coarse walk's log is exactly bestSeed's — across
// interval lengths 4, 9 and 12 and a spaced seed, homologous, random,
// repeat and wildcard queries and their reverse complements, one
// segment, three with tombstones and a paged index, in every coarse
// mode.
func TestSeedHandOverMatchesBestSeed(t *testing.T) {
	for _, io := range handOverIndexes {
		f, queries := handOverFixture(t, 700, io)
		rng := rand.New(rand.NewSource(701))
		for layout, s := range segmentations(t, f, rng) {
			compared, multi := 0, false
			for qname, q := range queries {
				for _, strand := range [][]byte{q, dna.ReverseComplement(q)} {
					for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
						name := fmt.Sprintf("%+v %s %s %v", io, layout, qname, mode)
						compared += checkHandOver(t, s, strand, mode, name)
						multi = multi || len(s.log.offs) > 0
					}
				}
			}
			if compared < 50 || !multi {
				t.Fatalf("%+v %s: %d candidates compared, multi-offset postings logged: %v; the comparison is too weak",
					io, layout, compared, multi)
			}
		}
	}
}

// TestSeedHandOverSearchEquivalence: whole searches through the hand-over
// are DeepEqual to the same searches with every seed extracted — banded
// in every coarse mode with prescreen off and on, one strand serially
// and both with eight fine workers, plus a prescreened exact search
// (exact without prescreen reads no seed), over one segment, three with
// tombstones and a paged index.
func TestSeedHandOverSearchEquivalence(t *testing.T) {
	var grid []Options
	for _, cm := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
		for _, prescreen := range []int{0, 30} {
			for _, workers := range []int{0, 8} {
				opts := DefaultOptions()
				opts.CoarseMode, opts.Prescreen = cm, prescreen
				opts.BothStrands, opts.FineWorkers = workers > 0, workers
				grid = append(grid, opts)
			}
		}
	}
	exact := DefaultOptions()
	exact.FineMode, exact.Prescreen = FineFull, 30
	grid = append(grid, exact)

	f, queries := handOverFixture(t, 710, index.Options{K: 9, StoreOffsets: true})
	layouts := segmentations(t, f, rand.New(rand.NewSource(711)))
	extracting := segmentations(t, f, rand.New(rand.NewSource(711)))
	for layout, s := range layouts {
		ref := extracting[layout]
		ref.extractSeeds = true
		for qname, q := range queries {
			for _, opts := range grid {
				name := fmt.Sprintf("%s %s %+v", layout, qname, opts)
				want, err := ref.Search(q, opts)
				if err != nil {
					t.Fatalf("%s: extracting: %v", name, err)
				}
				got, err := s.Search(q, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: hand-over results differ\n got %+v\nwant %+v", name, got, want)
				}
			}
		}
	}
}

// extracted reports whether any of s's fine workers ran bestSeed:
// bestSeed points its scratch at the query's term array on every call,
// and nothing else sets it.
func extracted(s *Searcher) bool {
	for _, sc := range s.seedScratch {
		if sc.terms != nil {
			return true
		}
	}
	return false
}

// TestDefaultIndexNeverExtracts: on an index built with the default
// options, no search runs bestSeed — banded, prescreened, both strands,
// serial and parallel — while a searcher forced to extract does.
func TestDefaultIndexNeverExtracts(t *testing.T) {
	f, queries := handOverFixture(t, 720, index.DefaultOptions())
	s, ref := newTestSearcher(t, f), newTestSearcher(t, f)
	ref.extractSeeds = true
	for qname, q := range queries {
		for _, prescreen := range []int{0, 30} {
			for _, workers := range []int{0, 8} {
				opts := DefaultOptions()
				opts.Prescreen, opts.FineWorkers, opts.BothStrands = prescreen, workers, true
				want, err := ref.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := s.Search(q, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s prescreen=%d workers=%d: results differ from extraction", qname, prescreen, workers)
				}
			}
		}
	}
	if extracted(s) {
		t.Fatal("a search on a default-built index ran bestSeed")
	}
	if !extracted(ref) {
		t.Fatal("the extracting searcher never ran bestSeed: the probe proves nothing")
	}
}

// TestSeedHandOverFallbacks: where the postings cannot reproduce
// bestSeed — an index with a stopped term, an index without offsets, a
// walk past the log's limit — the fine phase extracts, and the answers
// equal a searcher forced to extract.
func TestSeedHandOverFallbacks(t *testing.T) {
	stopped, queries := handOverFixture(t, 730, index.Options{K: 6, StoreOffsets: true, StopFraction: 0.01})
	if stopped.idx.NumStopped() == 0 {
		t.Fatal("the stopped index stops no term")
	}
	noOffsets, _ := handOverFixture(t, 730, index.Options{K: 9})
	overCap, _ := handOverFixture(t, 730, index.Options{K: 9, StoreOffsets: true})
	for name, c := range map[string]struct {
		f     *fixture
		limit int
	}{
		"stopped":    {stopped, maxSeedLog},
		"no-offsets": {noOffsets, maxSeedLog},
		"over-cap":   {overCap, 50},
	} {
		s, ref := newTestSearcher(t, c.f), newTestSearcher(t, c.f)
		s.log.limit = c.limit
		ref.extractSeeds = true
		fellBack := 0
		for qname, q := range queries {
			opts := DefaultOptions()
			opts.Prescreen, opts.BothStrands = 30, true
			want, err := ref.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := s.Search(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s %s: results differ from extraction\n got %+v\nwant %+v", name, qname, got, want)
			}
			var st SearchStats
			_, handed, err := s.coarse(context.Background(), q, CoarseDistinct, 1, 100, true, &st)
			if err != nil {
				t.Fatal(err)
			}
			// Under the lowered limit, a walk that stays within it may
			// still hand over.
			if handed && (c.limit == maxSeedLog || st.PostingsDecoded > int64(c.limit)) {
				t.Fatalf("%s %s: %d postings walked, and seeds were handed over", name, qname, st.PostingsDecoded)
			}
			if !handed {
				fellBack++
			}
		}
		if !extracted(s) || fellBack == 0 {
			t.Fatalf("%s: no search ran bestSeed", name)
		}
	}
}

// TestCoarseWritesNoLog: only a search that reads seeds logs — not the
// Coarse recall API, not an exact search without prescreen, not a
// banded search whose diagonal mode already places the band.
func TestCoarseWritesNoLog(t *testing.T) {
	f := makeFixture(t, 740, index.DefaultOptions())
	s := newTestSearcher(t, f)
	if _, err := s.Coarse(f.query, CoarseDistinct, 1); err != nil {
		t.Fatal(err)
	}
	exact := DefaultOptions()
	exact.FineMode = FineFull
	diagonal := DefaultOptions()
	diagonal.CoarseMode = CoarseDiagonal
	for _, opts := range []Options{exact, diagonal} {
		if _, err := s.Search(f.query, opts); err != nil {
			t.Fatal(err)
		}
	}
	if cap(s.log.recs) != 0 || cap(s.log.lists) != 0 || cap(s.log.offs) != 0 {
		t.Fatalf("log written: %d records, %d lists, %d offsets", len(s.log.recs), len(s.log.lists), len(s.log.offs))
	}
	if _, err := s.Search(f.query, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(s.log.recs) == 0 {
		t.Fatal("a default search logged nothing: the probe proves nothing")
	}
}

// TestPooledSeedLogCapped: a searcher keeps a normal query's log for the
// next query, but not one past maxPooledSeedLog records, whose walk still
// hands its seeds over.
func TestPooledSeedLogCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(750))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	for i := 0; i < 1500; i++ {
		store.Add("r", gen.RandomSequence(rng, 400, uniform, 0))
	}
	// 4-mers: nearly every sequence holds nearly every term, so a query
	// with all 256 walks ≈ 1500 × 200 postings.
	idx, err := index.Build(&store, index.Options{K: 4, StoreOffsets: true})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	small, huge := store.Sequence(0)[:40], gen.RandomSequence(rng, 3000, uniform, 0)
	if checkHandOver(t, s, small, CoarseDistinct, "small") == 0 || cap(s.log.recs) == 0 {
		t.Fatal("a small query's log was not kept")
	}
	checkHandOver(t, s, huge, CoarseDistinct, "huge")
	if n := len(s.log.recs); n != 0 {
		t.Fatalf("searcher kept %d records", n)
	}
	var st SearchStats
	if _, err := s.SearchWithStatsContext(context.Background(), huge, DefaultOptions(), &st); err != nil {
		t.Fatal(err)
	}
	if st.PostingsDecoded <= maxPooledSeedLog || st.PostingsDecoded > maxSeedLog {
		t.Fatalf("the huge query walks %d postings, want (%d, %d]", st.PostingsDecoded, maxPooledSeedLog, maxSeedLog)
	}
	if cap(s.log.recs) > maxPooledSeedLog || cap(s.log.offs) > maxPooledSeedLog || len(s.log.count) > maxPooledSeedLog {
		t.Fatalf("searcher keeps %d records, %d offsets, %d diagonals", cap(s.log.recs), cap(s.log.offs), len(s.log.count))
	}
	if extracted(s) {
		t.Fatal("the huge query was extracted, not handed over")
	}
}

// TestSeedHandOverWarmAllocs: a warm default search allocates no more
// through the hand-over than through extraction.
func TestSeedHandOverWarmAllocs(t *testing.T) {
	f := makeFixture(t, 760, index.DefaultOptions())
	s, ref := newTestSearcher(t, f), newTestSearcher(t, f)
	ref.extractSeeds = true
	opts := DefaultOptions()
	run := func(s *Searcher) func() {
		return func() {
			if _, err := s.Search(f.query, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(s)()
	run(ref)()
	got, want := testing.AllocsPerRun(20, run(s)), testing.AllocsPerRun(20, run(ref))
	if got > want {
		t.Fatalf("a warm search allocates %.0f objects through the hand-over, %.0f through extraction", got, want)
	}
}

// fuzzCollections caches FuzzSeedHandOver's searchers by collection seed.
var fuzzCollections struct {
	sync.Mutex
	m map[uint8]*Searcher
}

func fuzzSearcher(t *testing.T, seed uint8) *Searcher {
	fuzzCollections.Lock()
	defer fuzzCollections.Unlock()
	if s := fuzzCollections.m[seed]; s != nil {
		return s
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	var store db.Store
	for i := 0; i < 12+rng.Intn(12); i++ {
		seq := gen.RandomSequence(rng, 20+rng.Intn(400), [4]float64{0.4, 0.1, 0.1, 0.4}, 0)
		for j := rng.Intn(4); j > 0; j-- {
			seq[rng.Intn(len(seq))] = dna.WildN
		}
		store.Add("r", seq)
	}
	opts := []index.Options{
		{K: 3, StoreOffsets: true}, {K: 6, StoreOffsets: true}, {K: 9, StoreOffsets: true},
		{SpacedMask: "11011", StoreOffsets: true},
	}[seed%4]
	idx, err := index.Build(&store, opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if fuzzCollections.m == nil {
		fuzzCollections.m = map[uint8]*Searcher{}
	}
	fuzzCollections.m[seed] = s
	return s
}

// FuzzSeedHandOver: for any query and small collection, every admitted
// candidate's handed-over seed equals bestSeed's, and nothing panics.
// Query bytes map to bases, with 0xF0 and above an N.
func FuzzSeedHandOver(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x00\x01\x02\x03\x00\x01\x02\x03"), uint8(0))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"), uint8(1))
	f.Add([]byte("\x03\x00\x03\x00\x03\x00\xf0\x03\x00\x03\x00\x03\x00\x01"), uint8(2))
	f.Add([]byte("\x01\x02\x03\x01\x02\x03\x01\x02\x03\x01\x02\x03\x01\x02\x03"), uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, seed uint8) {
		if len(raw) > 2000 {
			return
		}
		s := fuzzSearcher(t, seed%16)
		query := make([]byte, len(raw))
		for i, b := range raw {
			query[i] = b & 3
			if b >= 0xF0 {
				query[i] = dna.WildN
			}
		}
		if len(query) < s.coder.Span() {
			return
		}
		for _, mode := range []CoarseMode{CoarseDistinct, CoarseDiagonal} {
			checkHandOver(t, s, query, mode, mode.String())
		}
	})
}

// BenchmarkSeedHandOver prices the hand-over against extraction for one
// default query (1 000 bases, 100 candidates) on the collection the
// served-path benchmark and BenchmarkPostingsDecode use (17 777
// generated sequences, default index): the coarse walk without and with
// the log, the hand-over alone, and bestSeed over the same candidates
// with their sequences already decoded (the fine phase decodes them
// either way). The log and hand-over cost is the second row minus the
// first; extraction's is the last. Kernel evidence only: the served
// path is judged end to end.
func BenchmarkSeedHandOver(b *testing.B) {
	col, err := gen.Generate(gen.DefaultConfig(17777, 1))
	if err != nil {
		b.Fatal(err)
	}
	store := db.FromRecords(col.Records)
	idx, err := index.Build(store, index.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSearcher(idx, store, align.DefaultScoring())
	if err != nil {
		b.Fatal(err)
	}
	var root []byte
	for id, fam := range col.FamilyOf {
		if fam >= 0 && len(col.Records[id].Codes) >= 1000 {
			root = col.Records[id].Codes
			break
		}
	}
	query := gen.Fragment(rand.New(rand.NewSource(1)), root, 1000)
	ctx, opts := context.Background(), DefaultOptions()
	coarse := func(seeded bool) []Candidate {
		cands, _, err := s.coarse(ctx, query, opts.CoarseMode, opts.MinCoarseHits, opts.Candidates, seeded, &s.stats)
		if err != nil {
			b.Fatal(err)
		}
		return cands
	}
	b.Run("coarse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarse(false)
		}
	})
	b.Run("coarse+log+hand-over", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			coarse(true)
		}
	})
	cands := coarse(true)
	if len(cands) != opts.Candidates {
		b.Fatalf("%d candidates, want %d", len(cands), opts.Candidates)
	}
	b.Run("hand-over", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.log.handOver(cands, s.terms, len(query))
		}
	})
	seqs := make([][]byte, len(cands))
	for i, c := range cands {
		seqs[i] = store.Sequence(c.ID)
	}
	sc := newSeedScratch()
	b.Run("bestSeed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, seq := range seqs {
				s.bestSeed(s.coder, seq, sc)
			}
		}
	})
}

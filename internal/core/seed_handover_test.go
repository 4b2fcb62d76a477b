package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
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
// three contiguous lengths and a spaced seed.
var handOverIndexes = []index.Options{
	{K: 4},
	{K: 9},
	{K: 12},
	{SpacedMask: "1110110101101"},
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

// refBestSeed is the seed oracle, map-only: it extracts every interval
// of seq, looks each up in termSet (the query's term → positions), and
// returns the diagonal with the most shared intervals (ties to the
// smaller diagonal) and its first hit in extraction order. It reports
// false when the two share no interval.
func refBestSeed(termSet map[kmer.Term][]int, coder *kmer.Coder, seq []byte) (seedHit, bool) {
	counts := map[int]int{}
	firstHit := map[int][2]int{}
	coder.ExtractFunc(seq, func(sPos int, t kmer.Term) {
		for _, qp := range termSet[t] {
			d := sPos - qp
			counts[d]++
			if _, ok := firstHit[d]; !ok {
				firstHit[d] = [2]int{qp, sPos}
			}
		}
	})
	best, bestDiag, found := 0, 0, false
	for d, n := range counts {
		if n > best || n == best && found && d < bestDiag {
			best, bestDiag, found = n, d, true
		}
	}
	if !found {
		return seedHit{}, false
	}
	hit := firstHit[bestDiag]
	return seedHit{diag: bestDiag, qPos: hit[0], sPos: hit[1]}, true
}

// checkHandOver runs a seeded coarse call for query and holds every
// admitted candidate's handed-over seed to refBestSeed's over the query
// terms its segment holds a list for — on an unstopped index, every
// term. It returns the number of candidates compared.
func checkHandOver(t testing.TB, s *Searcher, query []byte, mode CoarseMode, name string) int {
	t.Helper()
	var st SearchStats
	s.recs = s.recs[:0]
	cands, err := s.coarse(context.Background(), query, mode, 1, 100, true, &st)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(s.recs) != len(cands) {
		t.Fatalf("%s: %d candidates, %d records", name, len(cands), len(s.recs))
	}
	termSets := map[*index.Index]map[kmer.Term][]int{}
	for i, c := range cands {
		seg := s.segs[0]
		for _, sg := range s.segs {
			if sg.Base <= c.ID {
				seg = sg
			}
		}
		termSet := termSets[seg.Index]
		if termSet == nil {
			termSet = refTermSet(s.coder, query)
			for term := range termSet {
				if seg.Index.DF(term) == 0 {
					delete(termSet, term)
				}
			}
			termSets[seg.Index] = termSet
		}
		want, ok := refBestSeed(termSet, s.coder, s.src.AppendRange(nil, c.ID, 0, s.src.SeqLen(c.ID)))
		if got := s.recs[i].seed; !ok || got != want || s.recs[i].id != c.ID {
			t.Fatalf("%s: candidate %d (seq %d): hand-over %+v, oracle (%+v,%v)", name, i, c.ID, got, want, ok)
		}
	}
	return len(cands)
}

// TestSeedHandOverMatchesBestSeed: for every admitted candidate, the
// seed read from the coarse walk's log is exactly the oracle's — across
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
						multi = multi || len(s.log.counts) > 0
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

// TestSeedHandOverFallbacks: the walks whose postings are not every
// interval a candidate shares with the query, or are very many, still
// hand over the oracle's seeds. An index with stopped terms — one
// segment, three segments that each stop their own most frequent terms,
// and paged — seeds from the lists it holds: a stopped term adds no hit.
// A walk past 2²⁰ postings grows the log, and the searcher drops its
// backing afterwards.
func TestSeedHandOverFallbacks(t *testing.T) {
	f, queries := handOverFixture(t, 730, index.Options{K: 6, StopFraction: 0.01})
	if f.idx.NumStopped() == 0 {
		t.Fatal("the stopped index stops no term")
	}
	stoppedInQuery := false
	for _, q := range queries {
		f.idx.Coder().ExtractFunc(q, func(_ int, term kmer.Term) {
			stoppedInQuery = stoppedInQuery || f.idx.Stopped(term)
		})
	}
	if !stoppedInQuery {
		t.Fatal("no query holds a stopped term: the stopped cases prove nothing")
	}
	for layout, s := range segmentations(t, f, rand.New(rand.NewSource(731))) {
		for qname, q := range queries {
			for _, strand := range [][]byte{q, dna.ReverseComplement(q)} {
				for _, mode := range []CoarseMode{CoarseDistinct, CoarseDiagonal} {
					checkHandOver(t, s, strand, mode, fmt.Sprintf("stopped %s %s %v", layout, qname, mode))
				}
			}
		}
	}

	if testing.Short() {
		t.Skip("the walk past 2²⁰ postings builds a 2.4 Mbase index")
	}
	// 4-mers: nearly every sequence holds ≈ 200 of the 256 terms, so a
	// query with all of them walks ≈ 6000 × 200 postings.
	rng := rand.New(rand.NewSource(732))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	for i := 0; i < 6000; i++ {
		store.Add("r", gen.RandomSequence(rng, 400, uniform, 0))
	}
	idx, err := index.Build(&store, index.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	huge := gen.RandomSequence(rng, 3000, uniform, 0)
	checkHandOver(t, s, huge, CoarseDistinct, "past 2²⁰")
	if n := len(s.log.ids); n != 0 {
		t.Fatalf("searcher kept %d logged postings", n)
	}
	var st SearchStats
	if _, err := s.SearchWithStatsContext(context.Background(), huge, DefaultOptions(), &st); err != nil {
		t.Fatal(err)
	}
	if st.PostingsDecoded <= 1<<20 {
		t.Fatalf("the huge query walks %d postings, want more than 2²⁰", st.PostingsDecoded)
	}
}

// TestSeedLogOverflowIsAnError: a walk whose records or offsets would
// pass the log's 31-bit indexes fails with an internal error, not the
// caller's ErrInvalid, rather than wrap them, and the searcher answers
// afterwards. maxLogIndex is lowered so a small collection reaches it:
// just below the walk's postings, where on random sequences, whose
// postings hold one offset, only the records pass it; and on tandem
// repeats, whose postings hold many offsets each, also at the postings,
// where only the offsets pass it.
func TestSeedLogOverflowIsAnError(t *testing.T) {
	defer func(m int) { maxLogIndex = m }(maxLogIndex)
	rng := rand.New(rand.NewSource(770))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	unit := gen.RandomSequence(rng, 7, uniform, 0)
	for _, tandem := range []bool{false, true} {
		var store db.Store
		for i := 0; i < 30; i++ {
			seq := gen.RandomSequence(rng, 400, uniform, 0)
			if tandem {
				for j := range seq {
					seq[j] = unit[(i+j)%len(unit)]
				}
			}
			store.Add("r", seq)
		}
		k := 8 // random 8-mers rarely repeat in a sequence: one offset a posting
		if tandem {
			k = 4
		}
		idx, err := index.Build(&store, index.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSearcher(idx, &store, align.DefaultScoring())
		if err != nil {
			t.Fatal(err)
		}
		query := store.Sequence(3)[:200]
		var st SearchStats
		if _, err := s.coarse(context.Background(), query, CoarseDistinct, 1, 100, false, &st); err != nil {
			t.Fatal(err)
		}
		limits := []int{int(st.PostingsDecoded) - 1}
		if tandem {
			limits = append(limits, int(st.PostingsDecoded))
		}
		for _, limit := range limits {
			maxLogIndex = limit
			_, err := s.coarse(context.Background(), query, CoarseDistinct, 1, 100, true, &st)
			if err == nil || errors.Is(err, ErrInvalid) || !strings.Contains(err.Error(), "seed log") {
				t.Fatalf("tandem %v, %d postings, limit %d: err = %v, want an internal seed-log error", tandem, st.PostingsDecoded, limit, err)
			}
		}
		maxLogIndex = math.MaxInt32
		checkHandOver(t, s, query, CoarseDistinct, fmt.Sprintf("tandem %v after the overflow", tandem))
	}
}

// TestSeedHandOverHammer runs many queries through one searcher: the
// log, the seeds and the term array it rebuilds for every query leave
// nothing behind that changes the next query's answers, which equal a
// fresh searcher's.
func TestSeedHandOverHammer(t *testing.T) {
	f := makeFixture(t, 612, index.DefaultOptions())
	reused := newTestSearcher(t, f)
	rng := rand.New(rand.NewSource(612))
	opts := DefaultOptions()
	opts.Prescreen = 30 // a seed for every candidate
	for i := 0; i < 40; i++ {
		root := f.store.Sequence(rng.Intn(f.store.Len()))
		query := gen.Fragment(rng, root, 100+rng.Intn(150))
		opts.BothStrands = i%2 == 0
		want, err := newTestSearcher(t, f).Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := reused.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: the reused searcher returned\n%+v\na fresh one returned\n%+v", i, got, want)
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
	if cap(s.log.ids) != 0 || cap(s.log.counts) != 0 || cap(s.log.lists) != 0 || cap(s.log.offs) != 0 {
		t.Fatalf("log written: %d postings, %d counts, %d lists, %d offsets", len(s.log.ids), len(s.log.counts), len(s.log.lists), len(s.log.offs))
	}
	if _, err := s.Search(f.query, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(s.log.ids) == 0 {
		t.Fatal("a default search logged nothing: the probe proves nothing")
	}
}

// TestPooledSeedLogCapped: a searcher keeps a normal query's log for the
// next query, but not one past maxPooledSeedLog postings; and a searcher
// over a paged index keeps a normal query's arena of lists, but not one
// past maxPooledArena bytes.
func TestPooledSeedLogCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(750))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	for i := 0; i < 3000; i++ {
		store.Add("r", gen.RandomSequence(rng, 400, uniform, 0))
	}
	// 4-mers: nearly every sequence holds nearly every term, so a query
	// with all 256 walks ≈ 3000 × 200 postings in ≈ 1.3 MB of lists.
	idx, err := index.Build(&store, index.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{store: &store, idx: idx}
	small, huge := store.Sequence(0)[:40], gen.RandomSequence(rng, 3000, uniform, 0)
	for layout, s := range segmentations(t, f, rng) {
		if layout == "3-segments" {
			continue
		}
		if checkHandOver(t, s, small, CoarseDistinct, layout+" small") == 0 || cap(s.log.ids) == 0 {
			t.Fatalf("%s: a small query's log was not kept", layout)
		}
		if layout == "paged" && cap(s.arena) == 0 {
			t.Fatal("paged: a small query's arena was not kept")
		}
		checkHandOver(t, s, huge, CoarseDistinct, layout+" huge")
		if n := len(s.log.ids); n != 0 {
			t.Fatalf("%s: searcher kept %d logged postings", layout, n)
		}
		var st SearchStats
		if _, err := s.SearchWithStatsContext(context.Background(), huge, DefaultOptions(), &st); err != nil {
			t.Fatal(err)
		}
		if st.PostingsDecoded <= maxPooledSeedLog || st.PostingsBytesRead <= maxPooledArena {
			t.Fatalf("%s: the huge query walks %d postings in %d bytes, want more than %d and %d",
				layout, st.PostingsDecoded, st.PostingsBytesRead, maxPooledSeedLog, maxPooledArena)
		}
		if cap(s.log.ids) > maxPooledSeedLog || cap(s.log.counts) > maxPooledSeedLog || cap(s.log.offs) > maxPooledSeedLog || len(s.log.count) > maxPooledSeedLog {
			t.Fatalf("%s: searcher keeps %d postings, %d counts, %d offsets, %d diagonals",
				layout, cap(s.log.ids), cap(s.log.counts), cap(s.log.offs), len(s.log.count))
		}
		if cap(s.arena) > maxPooledArena {
			t.Fatalf("%s: searcher keeps a %d-byte arena", layout, cap(s.arena))
		}
	}
}

// TestSeedHandOverWarmAllocs: once warm, logging the walk and handing
// the seeds over allocates nothing: a seeded coarse call allocates no
// more than an unseeded one.
func TestSeedHandOverWarmAllocs(t *testing.T) {
	f := makeFixture(t, 760, index.DefaultOptions())
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	run := func(seeded bool) func() {
		return func() {
			s.recs = s.recs[:0]
			if _, err := s.coarse(context.Background(), f.query, opts.CoarseMode, opts.MinCoarseHits, opts.Candidates, seeded, &s.stats); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(true)()
	seeded, unseeded := testing.AllocsPerRun(20, run(true)), testing.AllocsPerRun(20, run(false))
	if seeded > unseeded {
		t.Fatalf("a warm seeded coarse call allocates %.0f objects, an unseeded one %.0f", seeded, unseeded)
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
	opts := []index.Options{{K: 3}, {K: 6}, {K: 9}, {SpacedMask: "11011"}}[seed%4]
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
// candidate's handed-over seed equals the oracle's, and nothing panics.
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

// BenchmarkSeedHandOver prices the seed log on the collection the
// served-path benchmark and BenchmarkPostingsDecode use (17 777
// generated sequences, default index), for one 1 000-base query at two
// candidate budgets: 100 (served_default's) and 3 (coarse_scan's). Each
// budget has the coarse walk without and with the log, and the hand-over
// alone; the log and hand-over cost is the second row minus the first.
// With 100 candidates the hand-over walks nearly every offset stream to
// its end, with 3 only up to the candidates' last postings. Kernel
// evidence only: the served path is judged end to end.
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
	for _, budget := range []int{100, 3} {
		coarse := func(seeded bool) []Candidate {
			s.recs = s.recs[:0]
			cands, err := s.coarse(ctx, query, opts.CoarseMode, opts.MinCoarseHits, budget, seeded, &s.stats)
			if err != nil {
				b.Fatal(err)
			}
			return cands
		}
		name := fmt.Sprintf("candidates=%d/", budget)
		b.Run(name+"coarse", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coarse(false)
			}
		})
		b.Run(name+"coarse+log+hand-over", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coarse(true)
			}
		})
		if cands := coarse(true); len(cands) != budget {
			b.Fatalf("%d candidates, want %d", len(cands), budget)
		}
		b.Run(name+"hand-over", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.log.handOver(s.recs, s.terms, len(query), true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

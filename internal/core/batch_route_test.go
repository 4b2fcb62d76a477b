package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// workCounters returns st without its wall clocks: the counters two
// routes through the same search must agree on to the digit.
func workCounters(st SearchStats) SearchStats {
	st.CoarseTime, st.PrescreenTime, st.FineTime, st.TracebackTime, st.TotalTime = 0, 0, 0, 0, 0
	return st
}

// TestBatchedBandedMatchesScalar holds the batched banded route to its
// reference: whole searches are DeepEqual — scores, rankings, spans and
// transcripts — to the same searches with scalarBanded set, which scores
// every candidate alone over its whole sequence, and every work counter
// (lists, postings, fine and traceback cells) is equal. The grid covers
// one, three and eight fine workers (workers claim batches; output stays
// in candidate order), both strands, the prescreen, the diagonal coarse
// mode (centres from the coarse walk) and the distinct one (centres from
// the seed hand-over), over one segment, three with tombstones and a
// paged index.
func TestBatchedBandedMatchesScalar(t *testing.T) {
	var grid []Options
	for _, cm := range []CoarseMode{CoarseDistinct, CoarseDiagonal} {
		for _, workers := range []int{1, 3, 8} {
			for _, both := range []bool{false, true} {
				for _, prescreen := range []int{0, 30} {
					opts := DefaultOptions()
					opts.CoarseMode, opts.FineWorkers = cm, workers
					opts.BothStrands, opts.Prescreen = both, prescreen
					opts.MinScore, opts.Limit = 0, 0 // every candidate's score and end reach the list
					grid = append(grid, opts)
				}
			}
		}
	}
	f, queries := handOverFixture(t, 730, index.Options{K: 9})
	layouts := segmentations(t, f, rand.New(rand.NewSource(731)))
	refs := segmentations(t, f, rand.New(rand.NewSource(731)))
	for layout, s := range layouts {
		ref := refs[layout]
		ref.scalarBanded = true
		for qname, q := range queries {
			for _, opts := range grid {
				name := fmt.Sprintf("%s %s %+v", layout, qname, opts)
				var wantSt, gotSt SearchStats
				want, err := ref.SearchWithStatsContext(context.Background(), q, opts, &wantSt)
				if err != nil {
					t.Fatalf("%s: scalar: %v", name, err)
				}
				got, err := s.SearchWithStatsContext(context.Background(), q, opts, &gotSt)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: batched results differ from scalar\n got %+v\nwant %+v", name, got, want)
				}
				if workCounters(gotSt) != workCounters(wantSt) {
					t.Fatalf("%s: batched counters %+v, scalar %+v", name, workCounters(gotSt), workCounters(wantSt))
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
	s, ref := newTestSearcher(t, f), newTestSearcher(t, f)
	ref.scalarBanded = true
	for _, q := range [][]byte{f.query, dna.ReverseComplement(f.query)} {
		opts := DefaultOptions()
		opts.BothStrands = true
		want, err := ref.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batched results differ from scalar\n got %+v\nwant %+v", got, want)
		}
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

// TestBatchedBandedHammer drives the batched route's per-worker lanes,
// windows and whole-subject buffers hard: eight fine workers, both
// strands, repeated searches, byte-identical to the serial scalar
// reference every time. The race detector (make check, CI's race job)
// turns any scratch shared between workers into a failure.
func TestBatchedBandedHammer(t *testing.T) {
	f, queries := handOverFixture(t, 734, index.Options{K: 9})
	s, ref := newTestSearcher(t, f), newTestSearcher(t, f)
	ref.scalarBanded = true
	opts := DefaultOptions()
	opts.BothStrands, opts.Prescreen, opts.MinScore = true, 20, 0
	for qname, q := range queries {
		want, err := ref.Search(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		par := opts
		par.FineWorkers = 8
		for i := 0; i < 10; i++ {
			got, err := s.Search(q, par)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s iteration %d: parallel batched differs from serial scalar", qname, i)
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

// BenchmarkByteLaneShare counts, on the collection the served-path
// benchmark uses (17 777 generated sequences, default index), how many
// of the banded score pass's lane-rows run in byte lanes, by query
// length. The queries follow served_default's shape: lengths
// 100·20^u for a low-discrepancy u, four in five mutated (10 %)
// fragments of family members, every fifth random; default options,
// one fine worker. It reports the share for 100–250, 250–700 and
// 700–2000 bases. A count, not a timing: run once with -benchtime 1x.
func BenchmarkByteLaneShare(b *testing.B) {
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
	var members []int
	for id, fam := range col.FamilyOf {
		if fam >= 0 {
			members = append(members, id)
		}
	}
	type bucket struct{ bytes, rows, queries int }
	var buckets [3]bucket
	for i := 0; i < b.N; i++ {
		for q := 0; q < 200; q++ {
			_, u := math.Modf(float64(q+1) * 0.6180339887498949)
			n := int(100 * math.Pow(20, u))
			rng := rand.New(rand.NewSource(int64(q)))
			var query []byte
			if q%5 == 4 {
				query = gen.RandomSequence(rng, n, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
			} else {
				src := col.Records[members[rng.Intn(len(members))]].Codes
				query = gen.Mutate(rng, gen.Fragment(rng, src, n), gen.MutationModel{
					SubstitutionRate: 0.08, InsertionRate: 0.01, DeletionRate: 0.01})
			}
			sc := s.fineScratch(1)[0]
			sc.batch.Rows()
			if _, err := s.Search(query, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
			k := 0
			switch {
			case len(query) >= 700:
				k = 2
			case len(query) >= 250:
				k = 1
			}
			rows, inBytes := sc.batch.Rows()
			buckets[k].rows += rows
			buckets[k].bytes += inBytes
			buckets[k].queries++
		}
	}
	for k, name := range []string{"100-250", "250-700", "700-2000"} {
		bk := buckets[k]
		b.ReportMetric(100*float64(bk.bytes)/float64(max(bk.rows, 1)), "%byte-rows/"+name)
		b.ReportMetric(float64(bk.queries)/float64(b.N), "queries/"+name)
	}
}

package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// refTermSet is the query-term structure as it was before the sorted
// array: one map entry per distinct term, holding the term's query
// positions in ascending order.
func refTermSet(coder *kmer.Coder, query []byte) map[kmer.Term][]int {
	termSet := map[kmer.Term][]int{}
	coder.ExtractFunc(query, func(pos int, t kmer.Term) {
		termSet[t] = append(termSet[t], pos)
	})
	return termSet
}

// refCoarse is the coarse phase as it was before the merge-join walk,
// frozen: it builds the term map, visits it in Go's map order, finds
// each list with the lexicon's binary search (ReaderStats), decodes
// every entry through postings.Iterator into a pair of plain counters
// per sequence, and selects with a full sort. The production coarse
// must return exactly its candidates, topK ≤ 0 meaning all of them.
func (s *Searcher) refCoarse(query []byte, mode CoarseMode, minHits, topK int) ([]Candidate, error) {
	if minHits < 1 {
		minHits = 1
	}
	if len(query) < s.coder.Span() {
		return nil, fmt.Errorf("core: query length %d shorter than interval span %d", len(query), s.coder.Span())
	}
	termSet := refTermSet(s.coder, query)

	var cands []Candidate
	var it postings.Iterator
	for _, seg := range s.segs {
		distinct := make([]int, seg.Index.NumSeqs())
		total := make([]int, seg.Index.NumSeqs())
		var touched []int
		diag := newDiagAcc(mode == CoarseDiagonal)
		for t, qPositions := range termSet {
			if df, _ := seg.Index.ReaderStats(t, &it); df == 0 {
				continue
			}
			for it.Next() {
				e := it.Entry()
				if distinct[e.ID] == 0 {
					touched = append(touched, int(e.ID))
				}
				distinct[e.ID]++
				total[e.ID] += int(e.Count)
				if diag != nil {
					for _, qp := range qPositions {
						for _, off := range e.Offsets {
							diag.add(e.ID, int(off)-qp)
						}
					}
				}
			}
			if err := it.Err(); err != nil {
				return nil, fmt.Errorf("core: term %d postings: %w", t, err)
			}
		}
		var diagBest map[uint32]diagResult
		if diag != nil {
			diagBest = diag.finalize()
		}
		for _, local := range touched {
			hits := distinct[local]
			if hits < minHits {
				continue
			}
			if seg.Deleted != nil && seg.Deleted(local) {
				continue
			}
			c := Candidate{ID: seg.Base + local, Hits: hits}
			switch mode {
			case CoarseDistinct:
				c.Score = float64(hits)
			case CoarseTotal:
				c.Score = float64(total[local])
			case CoarseNormalised:
				c.Score = float64(hits) / math.Log2(float64(seg.Index.SeqLen(local))+16)
			case CoarseDiagonal:
				r := diagBest[uint32(local)]
				c.Score = float64(r.score)
				c.Diag = r.diag
			}
			cands = append(cands, c)
		}
	}
	sort.Slice(cands, func(i, j int) bool { return candBetter(cands[i], cands[j]) })
	if topK > 0 && len(cands) > topK {
		cands = cands[:topK]
	}
	return cands, nil
}

// absentQuery draws a short query none of whose intervals any segment
// indexes.
func absentQuery(t *testing.T, rng *rand.Rand, s *Searcher) []byte {
	t.Helper()
	for try := 0; try < 10000; try++ {
		q := gen.RandomSequence(rng, s.coder.Span()+3, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)
		absent := true
		for _, term := range s.coder.Extract(nil, q) {
			for _, sg := range s.segs {
				absent = absent && sg.Index.DF(term) == 0
			}
		}
		if absent {
			return q
		}
	}
	t.Fatal("no query with only absent terms found")
	return nil
}

// TestCoarseMatchesReferenceWalk is the walk's lockdown: the sorted
// array merge-joined against the lexicon yields the candidate list the
// map walk yields, DeepEqual — every coarse mode, unbounded and bounded
// selection, one segment and three with tombstones, both strands of the
// fixture query, a query whose terms repeat, a poly-A query and a query
// with no indexed term at all.
func TestCoarseMatchesReferenceWalk(t *testing.T) {
	f := makeFixture(t, 91, index.Options{K: 9})
	rng := rand.New(rand.NewSource(92))
	root := f.store.Sequence(0)
	repeated := append(append(append([]byte{}, root[100:160]...), root[100:160]...), root[130:200]...)
	polyA := make([]byte, 40) // code 0 is A
	if dna.String(polyA[:1]) != "A" {
		t.Fatal("code 0 is not A")
	}

	for _, nseg := range []int{1, 3} {
		segs := []Segment{{Index: f.idx}}
		if nseg > 1 {
			segs = splitSegments(t, f, rng, nseg)
			for i := range segs {
				i := i
				// Tombstone every fourth local id, a family member among them.
				segs[i].Deleted = func(local int) bool { return (local+i)%4 == 1 }
			}
		}
		s, err := NewSegmentedSearcher(segs, f.store, align.DefaultScoring(), nil)
		if err != nil {
			t.Fatal(err)
		}
		queries := map[string][]byte{
			"forward":  f.query,
			"reverse":  dna.ReverseComplement(f.query),
			"repeated": repeated,
			"poly-A":   polyA,
			"absent":   absentQuery(t, rng, s),
		}
		for name, q := range queries {
			for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
				for _, topK := range []int{0, 3, 100} {
					want, err := s.refCoarse(q, mode, 1, topK)
					if err != nil {
						t.Fatal(err)
					}
					var st SearchStats
					got, err := s.coarse(context.Background(), q, mode, 1, topK, false, &st)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) == 0 && len(want) == 0 {
						got, want = nil, nil
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("segments=%d query=%s mode=%v topK=%d:\n got %+v\nwant %+v", nseg, name, mode, topK, got, want)
					}
					if n := len(refTermSet(s.coder, q)); st.QueryTerms != n {
						t.Fatalf("segments=%d query=%s: QueryTerms = %d, the query has %d distinct terms", nseg, name, st.QueryTerms, n)
					}
					if name == "absent" && (len(got) != 0 || st.PostingLists != 0) {
						t.Fatalf("absent query read %d lists, found %d candidates", st.PostingLists, len(got))
					}
					if (name == "forward" || name == "repeated") && len(got) == 0 {
						t.Fatalf("segments=%d query=%s mode=%v: no candidates, the comparison is vacuous", nseg, name, mode)
					}
				}
			}
		}
	}
}

// TestCoarseWarmAllocs: a warm coarse call allocates a small constant
// number of objects whatever the query length — the term array, the
// accumulators, the iterator and the top-k buffer are all the
// searcher's. (The map it replaced allocated one slice per distinct
// term: ≈ 700 a request on 1 000-base queries.)
func TestCoarseWarmAllocs(t *testing.T) {
	f := makeFixture(t, 93, index.Options{K: 9})
	s := newTestSearcher(t, f)
	root := f.store.Sequence(0)
	ctx := context.Background()
	var perLen []float64
	for _, n := range []int{100, 400, 700} {
		q := root[:n]
		run := func() {
			s.recs = s.recs[:0]
			if _, err := s.coarse(ctx, q, CoarseDistinct, 1, 100, false, &s.stats); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm: grow the scratch to this query's high-water mark
		perLen = append(perLen, testing.AllocsPerRun(20, run))
	}
	for i, a := range perLen {
		if a > 4 {
			t.Errorf("warm coarse call %d allocates %.0f objects, want ≤ 4", i, a)
		}
		if a != perLen[0] {
			t.Errorf("warm coarse allocations depend on query length: %v", perLen)
		}
	}
}

// TestQueryTermPacking: packed query terms sort by term, then position,
// keep both through a round trip at the widths' limits, and
// distinctTerms counts the runs of a sorted array.
func TestQueryTermPacking(t *testing.T) {
	terms := []queryTerm{
		packQueryTerm(3, 0), packQueryTerm(3, 7), packQueryTerm(3, 1<<30),
		packQueryTerm(9, 2),
		packQueryTerm(1<<32-1, 5), packQueryTerm(1<<32-1, 1<<31-1),
	}
	if !slices.IsSorted(terms) {
		t.Errorf("packed terms %v do not sort by term, then position", terms)
	}
	for i, want := range []struct {
		t   kmer.Term
		pos int
	}{{3, 0}, {3, 7}, {3, 1 << 30}, {9, 2}, {1<<32 - 1, 5}, {1<<32 - 1, 1<<31 - 1}} {
		if got := terms[i]; got.term() != want.t || got.pos() != want.pos {
			t.Errorf("term %d unpacks to (%d, %d), want (%d, %d)", i, got.term(), got.pos(), want.t, want.pos)
		}
	}
	if n := distinctTerms(terms); n != 3 {
		t.Errorf("distinctTerms = %d, want 3", n)
	}
	if n := distinctTerms(nil); n != 0 {
		t.Errorf("distinctTerms over an empty array = %d", n)
	}
}

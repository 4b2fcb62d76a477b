package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/gen"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
)

// refBestSeed is bestSeed as it was before the term filter and the
// sorted term array: every interval of seq goes to a term→positions map
// (refTermSet). Neither the filter nor the array may change what it
// returns.
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

// loadQueryTerms runs the coarse phase for its side effect: the
// searcher's term array and filter for query, as the fine phase sees them.
func loadQueryTerms(t *testing.T, s *Searcher, query []byte) {
	t.Helper()
	if _, _, err := s.coarse(context.Background(), query, CoarseDistinct, 1, 10, false, &s.stats); err != nil {
		t.Fatal(err)
	}
}

// filterFalsePositives counts the intervals of seq the filter passes
// although the query does not contain them.
func filterFalsePositives(s *Searcher, seq []byte) (n int) {
	s.coder.ExtractFunc(seq, func(_ int, t kmer.Term) {
		if len(termRun(s.terms, t)) == 0 && s.termBits.has(t) {
			n++
		}
	})
	return n
}

// TestBestSeedFilterEquivalence: over random collections, for contiguous
// intervals of three lengths and one spaced seed, bestSeed with the term
// filter returns exactly the seed the map-only reference returns, for
// every sequence of the collection and for homologous and random queries.
func TestBestSeedFilterEquivalence(t *testing.T) {
	for _, io := range []index.Options{
		{K: 4}, {K: 9, StoreOffsets: true}, {K: 12}, {SpacedMask: "1110110101101"},
	} {
		for seed := int64(0); seed < 3; seed++ {
			f := makeFixture(t, 600+seed, io)
			s := newTestSearcher(t, f)
			sc := newSeedScratch()
			rng := rand.New(rand.NewSource(seed))
			queries := [][]byte{f.query, gen.RandomSequence(rng, 300, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)}
			for _, q := range queries {
				loadQueryTerms(t, s, q)
				termSet := refTermSet(s.coder, q)
				for id := 0; id < f.store.Len(); id++ {
					seq := f.store.Sequence(id)
					want, wantOK := refBestSeed(termSet, s.coder, seq)
					got, gotOK := s.bestSeed(s.coder, seq, sc)
					if got != want || gotOK != wantOK {
						t.Fatalf("%+v seed %d seq %d: bestSeed = (%+v,%v), map-only reference (%+v,%v)",
							io, seed, id, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// TestBestSeedFilterCollisions drives the filter's false-positive path
// on purpose: a query whose two terms share one filter bit, against a
// subject that holds the query itself and every other 9-mer that lands
// on that bit. Those pass the filter and must be turned away by the array.
func TestBestSeedFilterCollisions(t *testing.T) {
	f := makeFixture(t, 611, index.Options{K: 9})
	s := newTestSearcher(t, f)
	coder := s.coder
	rng := rand.New(rand.NewSource(611))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}

	// A 10-base query has two overlapping 9-mers; draw until they collide.
	var query []byte
	for {
		query = gen.RandomSequence(rng, coder.Span()+1, uniform, 0)
		w0, m0 := termBit(coder.Encode(query))
		w1, m1 := termBit(coder.Encode(query[1:]))
		if w0 == w1 && m0 == m1 && coder.Encode(query) != coder.Encode(query[1:]) {
			break
		}
	}
	loadQueryTerms(t, s, query)
	termSet := refTermSet(coder, query)
	if len(termSet) != 2 || distinctTerms(s.terms) != 2 {
		t.Fatalf("query has %d terms (%d in the searcher's array), want 2", len(termSet), distinctTerms(s.terms))
	}
	set := 0
	for _, w := range s.termBits {
		for ; w != 0; w &= w - 1 {
			set++
		}
	}
	if set != 1 {
		t.Fatalf("filter has %d bits set, want 1: the query's terms do not collide", set)
	}

	subject := gen.RandomSequence(rng, 200, uniform, 0)
	for u := kmer.Term(0); uint64(u) < coder.NumTerms(); u++ {
		if _, inQuery := termSet[u]; !inQuery && s.termBits.has(u) {
			subject = append(subject, coder.Decode(u)...)
			subject = append(subject, gen.RandomSequence(rng, 5, uniform, 0)...)
		}
	}
	subject = append(subject, query...)
	if n := filterFalsePositives(s, subject); n == 0 {
		t.Fatal("subject holds no filter false positive: the test no longer reaches the array's veto")
	}

	sc := newSeedScratch()
	want, wantOK := refBestSeed(termSet, coder, subject)
	got, gotOK := s.bestSeed(coder, subject, sc)
	if !wantOK || got != want || gotOK != wantOK {
		t.Fatalf("bestSeed = (%+v,%v), map-only reference (%+v,%v)", got, gotOK, want, wantOK)
	}
	if want.sPos != len(subject)-len(query) || want.qPos != 0 {
		t.Fatalf("seed %+v is not the planted copy of the query at %d", want, len(subject)-len(query))
	}
}

// TestBestSeedFilterHammer runs many queries through one searcher with
// eight fine workers, every seed handed over from the coarse walk's log.
// Under -race it shows the log, the seeds and the term array are only
// read while the workers run — they are rebuilt between fine phases, on
// the calling goroutine — and the answers equal a serial searcher's that
// extracts every seed through the filter.
func TestBestSeedFilterHammer(t *testing.T) {
	f := makeFixture(t, 612, index.Options{K: 9, StoreOffsets: true})
	parallel, serial := newTestSearcher(t, f), newTestSearcher(t, f)
	serial.extractSeeds = true
	rng := rand.New(rand.NewSource(612))
	opts := DefaultOptions()
	opts.Prescreen = 30 // a seed for every candidate
	popts := opts
	popts.FineWorkers = 8
	for i := 0; i < 40; i++ {
		root := f.store.Sequence(rng.Intn(f.store.Len()))
		query := gen.Fragment(rng, root, 100+rng.Intn(150))
		opts.BothStrands, popts.BothStrands = i%2 == 0, i%2 == 0
		want, err := serial.Search(query, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parallel.Search(query, popts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: 8 fine workers returned\n%+v\nserial returned\n%+v", i, got, want)
		}
	}
	if extracted(parallel) || !extracted(serial) {
		t.Fatalf("parallel searcher extracted: %v, serial: %v; want only the serial", extracted(parallel), extracted(serial))
	}
}

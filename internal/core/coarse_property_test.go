package core

import (
	"math/rand"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
)

// bruteCoarse recomputes coarse statistics directly from the sequences:
// for each sequence, the number of distinct query intervals present and
// the total occurrences of query intervals.
func bruteCoarse(coder *kmer.Coder, store *db.Store, query []byte) (distinct, total map[int]int) {
	queryTerms := map[kmer.Term]bool{}
	coder.ExtractFunc(query, func(_ int, t kmer.Term) { queryTerms[t] = true })

	distinct = map[int]int{}
	total = map[int]int{}
	for id := 0; id < store.Len(); id++ {
		seen := map[kmer.Term]bool{}
		coder.ExtractFunc(store.Sequence(id), func(_ int, t kmer.Term) {
			if !queryTerms[t] {
				return
			}
			total[id]++
			if !seen[t] {
				seen[t] = true
				distinct[id]++
			}
		})
	}
	return distinct, total
}

func TestCoarseMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	var store db.Store
	for i := 0; i < 40; i++ {
		seq := make([]byte, 50+rng.Intn(300))
		for j := range seq {
			seq[j] = byte(rng.Intn(dna.NumBases))
		}
		store.Add("r", seq)
	}
	idx, err := index.Build(&store, index.Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}

	for trial := 0; trial < 10; trial++ {
		query := make([]byte, 30+rng.Intn(100))
		for j := range query {
			query[j] = byte(rng.Intn(dna.NumBases))
		}
		wantDistinct, wantTotal := bruteCoarse(idx.Coder(), &store, query)

		for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal} {
			cands, err := s.Coarse(query, mode, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := map[int]float64{}
			for _, c := range cands {
				got[c.ID] = c.Score
				if c.Hits != wantDistinct[c.ID] {
					t.Fatalf("trial %d: candidate %d hits %d, brute force %d",
						trial, c.ID, c.Hits, wantDistinct[c.ID])
				}
			}
			want := wantDistinct
			if mode == CoarseTotal {
				want = wantTotal
			}
			for id, w := range want {
				if w == 0 {
					continue
				}
				if got[id] != float64(w) {
					t.Fatalf("trial %d mode %v: sequence %d score %v, brute force %d",
						trial, mode, id, got[id], w)
				}
			}
			if len(got) != countPositive(want) {
				t.Fatalf("trial %d mode %v: %d candidates, brute force %d",
					trial, mode, len(got), countPositive(want))
			}
		}
	}
}

func countPositive(m map[int]int) int {
	n := 0
	for _, v := range m {
		if v > 0 {
			n++
		}
	}
	return n
}

func TestCoarseStoppedTermsExcluded(t *testing.T) {
	// With stopping, the stopped terms contribute nothing to coarse
	// scores — the accuracy/size trade the paper's stopping table
	// measures.
	var store db.Store
	store.Add("poly-a", dna.MustEncode("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"))
	store.Add("mixed", dna.MustEncode("ACGTACGTACGTACGTACGTACGTACGTACGT"))
	idx, err := index.Build(&store, index.Options{K: 4, StopFraction: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	aaaa := idx.Coder().Encode(dna.MustEncode("AAAA"))
	if !idx.Stopped(aaaa) {
		t.Skip("AAAA not stopped under this fraction")
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	// A poly-A query: every interval is AAAA, which is stopped, so the
	// coarse phase finds nothing at all.
	cands, err := s.Coarse(dna.MustEncode("AAAAAAAAAAAA"), CoarseDistinct, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 0 {
		t.Errorf("stopped-term query produced %d candidates", len(cands))
	}
}

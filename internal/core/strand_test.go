package core

import (
	"math/rand"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// strandFixture builds a store where the homologous target is stored
// as the reverse complement of the query's source, so only a
// both-strands search can find it.
func strandFixture(t *testing.T) (*Searcher, []byte, int) {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	source := gen.RandomSequence(rng, 600, uniform, 0)
	targetID := store.Add("rc-target", dna.ReverseComplement(source))
	for i := 0; i < 40; i++ {
		store.Add("noise", gen.RandomSequence(rng, 500, uniform, 0))
	}
	idx, err := index.Build(&store, index.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	query := gen.Fragment(rng, source, 200)
	return s, query, targetID
}

func TestBothStrandsFindsReverseComplement(t *testing.T) {
	s, query, targetID := strandFixture(t)

	// Forward-only search must miss the reverse-complemented target.
	opts := DefaultOptions()
	opts.MinScore = 300
	fwd, err := s.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range fwd {
		if r.ID == targetID {
			t.Fatalf("forward-only search found the RC target: %+v", r)
		}
	}

	// Both-strands search must find it, marked Reverse.
	opts.BothStrands = true
	both, err := s.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(both) == 0 {
		t.Fatal("both-strands search found nothing")
	}
	top := both[0]
	if top.ID != targetID || !top.Reverse {
		t.Fatalf("top hit = %+v, want RC target %d on reverse strand", top, targetID)
	}
	if want := 200 * align.DefaultScoring().Match; top.Score < want*9/10 {
		t.Errorf("RC match score %d, want near %d", top.Score, want)
	}
}

func TestBothStrandsKeepsBestStrandPerSequence(t *testing.T) {
	// A palindromic-ish setup: the target contains the query forward;
	// both-strands must report it once, on the forward strand.
	rng := rand.New(rand.NewSource(72))
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}
	var store db.Store
	target := gen.RandomSequence(rng, 600, uniform, 0)
	store.Add("fwd-target", target)
	for i := 0; i < 20; i++ {
		store.Add("noise", gen.RandomSequence(rng, 400, uniform, 0))
	}
	idx, err := index.Build(&store, index.Options{K: 9})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSearcher(idx, &store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	query := gen.Fragment(rng, target, 150)

	opts := DefaultOptions()
	opts.BothStrands = true
	opts.MinScore = 200
	rs, err := s.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for _, r := range rs {
		seen[r.ID]++
	}
	for id, n := range seen {
		if n > 1 {
			t.Errorf("sequence %d reported %d times", id, n)
		}
	}
	if len(rs) == 0 || rs[0].ID != 0 || rs[0].Reverse {
		t.Fatalf("top hit = %+v, want forward-strand target 0", rs[0])
	}
}

func TestBothStrandsResultsSorted(t *testing.T) {
	s, query, _ := strandFixture(t)
	opts := DefaultOptions()
	opts.BothStrands = true
	opts.MinScore = 0
	opts.Limit = 0
	rs, err := s.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rs); i++ {
		if rs[i].Score > rs[i-1].Score {
			t.Fatal("merged strand results not sorted")
		}
	}
}

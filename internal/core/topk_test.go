package core

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"nucleodb/internal/index"
)

// TestTopKHeapMatchesFullSort pushes random candidate streams — with
// heavy score ties, so the ID tie-break does real work — through the
// bounded heap and checks the selection equals the full sort's prefix
// exactly. candBetter is a total order (IDs are unique), which is what
// makes this equality exact rather than set-equal.
func TestTopKHeapMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(551))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				ID:    i,
				Score: float64(rng.Intn(8)), // few distinct scores → many ties
				Hits:  rng.Intn(5),
			}
		}
		rng.Shuffle(n, func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })

		full := append([]Candidate(nil), cands...)
		sort.Slice(full, func(i, j int) bool { return candBetter(full[i], full[j]) })

		for _, k := range []int{1, 2, 7, n / 2, n, n + 10} {
			if k < 1 {
				continue
			}
			sel := topKHeap{k: k}
			for _, c := range cands {
				sel.push(c)
			}
			got := sel.sorted()
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d k=%d: heap selection differs from sort prefix\n got %+v\nwant %+v",
					trial, k, got, want)
			}
		}
	}
}

func TestCandBetterTotalOrder(t *testing.T) {
	a := Candidate{ID: 1, Score: 2}
	b := Candidate{ID: 2, Score: 2}
	c := Candidate{ID: 3, Score: 5}
	if !candBetter(c, a) || candBetter(a, c) {
		t.Error("higher score must rank first")
	}
	if !candBetter(a, b) || candBetter(b, a) {
		t.Error("equal scores must tie-break on lower ID")
	}
	if candBetter(a, a) {
		t.Error("candBetter must be irreflexive")
	}
}

// TestBoundedTopKMatchesFullSort drives the internal coarse call both
// ways — bounded heap selection versus the Coarse recall API's full
// sort — and checks the heap's output is exactly the full ranking's
// prefix, for every mode and several budgets including over-budget.
func TestBoundedTopKMatchesFullSort(t *testing.T) {
	f := makeFixture(t, 335, index.Options{K: 9})
	s := newTestSearcher(t, f)

	for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
		full, err := s.Coarse(f.query, mode, 2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, k := range []int{1, 3, 10, len(full), len(full) + 50} {
			got, err := s.coarse(context.Background(), f.query, mode, 2, k, false, &s.stats)
			if err != nil {
				t.Fatalf("%v k=%d: %v", mode, k, err)
			}
			want := full
			if k < len(full) {
				want = full[:k]
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v k=%d: top-k selection differs from full sort prefix\n got %+v\nwant %+v",
					mode, k, got, want)
			}
		}
	}
}

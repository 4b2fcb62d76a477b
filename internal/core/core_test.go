package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/baseline"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// fixture bundles a synthetic store, its index, a homologous query and
// the relevant family set.
type fixture struct {
	store  *db.Store
	idx    *index.Index
	query  []byte
	family map[int]bool
}

func makeFixture(t *testing.T, seed int64, opts index.Options) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var store db.Store
	family := map[int]bool{}
	uniform := [4]float64{0.25, 0.25, 0.25, 0.25}

	root := gen.RandomSequence(rng, 800, uniform, 0)
	model := gen.MutationModel{SubstitutionRate: 0.06, InsertionRate: 0.01, DeletionRate: 0.01}
	for i := 0; i < 6; i++ {
		id := store.Add("family", gen.Mutate(rng, root, model))
		family[id] = true
	}
	for i := 0; i < 60; i++ {
		store.Add("noise", gen.RandomSequence(rng, 300+rng.Intn(700), uniform, 0))
	}
	idx, err := index.Build(&store, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{
		store:  &store,
		idx:    idx,
		query:  gen.Fragment(rng, root, 250),
		family: family,
	}
}

func newTestSearcher(t *testing.T, f *fixture) *Searcher {
	t.Helper()
	s, err := NewSearcher(f.idx, f.store, align.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSearchFindsFamily(t *testing.T) {
	f := makeFixture(t, 41, index.Options{K: 9})
	s := newTestSearcher(t, f)
	for _, mode := range []FineMode{FineFull, FineBanded} {
		opts := DefaultOptions()
		opts.FineMode = mode
		rs, err := s.Search(f.query, opts)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(rs) == 0 {
			t.Fatalf("%v: no results", mode)
		}
		found := 0
		for _, r := range rs[:min(len(rs), len(f.family))] {
			if f.family[r.ID] {
				found++
			}
		}
		if found < len(f.family)-1 {
			t.Errorf("%v: only %d of %d family members in top results", mode, found, len(f.family))
		}
		for i := 1; i < len(rs); i++ {
			if rs[i].Score > rs[i-1].Score {
				t.Fatalf("%v: results not sorted", mode)
			}
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestSearchMatchesExhaustiveGoldStandard(t *testing.T) {
	// The headline accuracy claim: partitioned search recovers (nearly)
	// the same top answers as the exhaustive Smith–Waterman scan.
	f := makeFixture(t, 42, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.FineMode = FineFull // exact fine scores for comparability
	opts.Limit = 10
	got, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	gold := baseline.SWScan(f.store, f.query, align.DefaultScoring(), 0, 10)

	goldTop := map[int]int{}
	for _, r := range gold[:min(5, len(gold))] {
		goldTop[r.ID] = r.Score
	}
	found := 0
	for _, r := range got {
		if want, ok := goldTop[r.ID]; ok {
			found++
			if r.Score != want {
				t.Errorf("id %d: partitioned score %d, exhaustive %d", r.ID, r.Score, want)
			}
		}
	}
	if found < len(goldTop)-1 {
		t.Errorf("partitioned search found %d of top-%d exhaustive answers", found, len(goldTop))
	}
}

func TestCoarseModes(t *testing.T) {
	f := makeFixture(t, 43, index.Options{K: 9})
	s := newTestSearcher(t, f)
	for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
		cands, err := s.Coarse(f.query, mode, 1)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if len(cands) == 0 {
			t.Fatalf("%v: no candidates", mode)
		}
		for i := 1; i < len(cands); i++ {
			if cands[i].Score > cands[i-1].Score {
				t.Fatalf("%v: candidates not sorted", mode)
			}
		}
		// Family members share most intervals with the query: at least
		// a few must rank in the top 10 under every mode.
		famTop := 0
		for _, c := range cands[:min(10, len(cands))] {
			if f.family[c.ID] {
				famTop++
			}
		}
		if famTop < 3 {
			t.Errorf("%v: only %d family members in coarse top 10", mode, famTop)
		}
	}
}

// TestCoarseDiagonalNeedsOffsets: diagonal mode reads the offsets every
// index stores, so an index built from options that never mention them
// ranks by diagonal, and every candidate's record carries that diagonal
// as its band's centre, even when the record also gets a seed.
func TestCoarseDiagonalNeedsOffsets(t *testing.T) {
	f := makeFixture(t, 44, index.Options{K: 9})
	s := newTestSearcher(t, f)
	cands, err := s.Coarse(f.query, CoarseDiagonal, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 || !f.family[cands[0].ID] {
		t.Fatalf("diagonal ranking's top candidate is not in the family: %+v", cands[:min(len(cands), 3)])
	}
	s.recs = s.recs[:0]
	top, err := s.coarse(context.Background(), f.query, CoarseDiagonal, 1, len(cands), true, &s.stats)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range top {
		if r := s.recs[i]; r.id != c.ID || r.centre != c.Diag || c != cands[i] {
			t.Fatalf("candidate %d: %+v, its record %+v, the full ranking's %+v", i, c, r, cands[i])
		}
	}
}

func TestSearchOptionValidation(t *testing.T) {
	f := makeFixture(t, 45, index.Options{K: 9})
	s := newTestSearcher(t, f)
	bad := []Options{
		{},
		{Candidates: 0, MinCoarseHits: 1, FineMode: FineFull},
		{Candidates: 10, MinCoarseHits: 0, FineMode: FineFull},
		{Candidates: 10, MinCoarseHits: 1, FineMode: FineBanded, Band: 0},
		{Candidates: 10, MinCoarseHits: 1, CoarseMode: CoarseMode(9), FineMode: FineFull},
		{Candidates: 10, MinCoarseHits: 1, FineMode: FineMode(9)},
		{Candidates: 10, MinCoarseHits: 1, FineMode: FineFull, MinScore: -1},
	}
	for i, o := range bad {
		if _, err := s.Search(f.query, o); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
}

// TestCoarseValidationExhaustive enumerates the accepted coarse modes
// through their String() coverage: every named value must validate,
// every value one past the end must be rejected — the exhaustive-switch
// regression for the old `> CoarseDiagonal` range check, which silently
// widened whenever a new mode was appended.
func TestCoarseValidationExhaustive(t *testing.T) {
	modes := []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal}
	for _, m := range modes {
		opts := DefaultOptions()
		opts.CoarseMode = m
		if err := opts.Validate(); err != nil {
			t.Errorf("mode %v rejected: %v", m, err)
		}
	}
	for _, m := range []CoarseMode{CoarseMode(-1), CoarseDiagonal + 1, CoarseMode(99)} {
		opts := DefaultOptions()
		opts.CoarseMode = m
		if err := opts.Validate(); err == nil {
			t.Errorf("mode %d accepted", int(m))
		}
	}

	// String coverage for the modes: distinct names, no fallthrough.
	seen := map[string]bool{}
	for _, m := range modes {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("mode %d has String %q", int(m), s)
		}
		seen[s] = true
	}
}

func TestSearchQueryShorterThanK(t *testing.T) {
	f := makeFixture(t, 46, index.Options{K: 9})
	s := newTestSearcher(t, f)
	if _, err := s.Search(dna.MustEncode("ACGT"), DefaultOptions()); err == nil {
		t.Error("query shorter than K accepted")
	}
}

func TestSearcherMismatchedStore(t *testing.T) {
	f := makeFixture(t, 47, index.Options{K: 9})
	var other db.Store
	other.Add("only", dna.MustEncode("ACGTACGTACGT"))
	if _, err := NewSearcher(f.idx, &other, align.DefaultScoring()); err == nil {
		t.Error("mismatched store accepted")
	}
	if _, err := NewSearcher(f.idx, f.store, align.Scoring{}); err == nil {
		t.Error("invalid scoring accepted")
	}
}

func TestCandidateBudgetBoundsFineWork(t *testing.T) {
	f := makeFixture(t, 48, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Candidates = 3
	opts.Limit = 0
	opts.MinScore = 0
	rs, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) > 3 {
		t.Errorf("budget 3 produced %d results", len(rs))
	}
}

func TestMinCoarseHitsFilters(t *testing.T) {
	f := makeFixture(t, 49, index.Options{K: 9})
	s := newTestSearcher(t, f)
	loose, err := s.Coarse(f.query, CoarseDistinct, 1)
	if err != nil {
		t.Fatal(err)
	}
	strict, err := s.Coarse(f.query, CoarseDistinct, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(strict) >= len(loose) {
		t.Errorf("minHits filter had no effect: %d vs %d", len(strict), len(loose))
	}
	for _, c := range strict {
		if c.Hits < 10 {
			t.Errorf("candidate %d has %d hits < 10", c.ID, c.Hits)
		}
	}
}

func TestSearcherReuseAcrossQueries(t *testing.T) {
	// Scratch state must fully reset between queries, and nothing a call
	// returns may alias the searcher's pooled scratch: each form runs two
	// different queries back-to-back on one searcher, and gives the same
	// answers as fresh searchers. The first query's answer is compared
	// only after the second query has run, so a result slice backed by
	// the searcher's records, or a candidate slice backed by its top-k
	// buffer, fails.
	f := makeFixture(t, 50, index.Options{K: 9})
	rng := rand.New(rand.NewSource(51))
	q2 := gen.RandomSequence(rng, 200, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)

	type form struct {
		name string
		call func(s *Searcher, query []byte) (any, error)
	}
	var forms []form
	exact, strands := DefaultOptions(), DefaultOptions()
	exact.FineMode = FineFull
	strands.BothStrands = true
	for _, set := range []struct {
		name string
		opts Options
	}{{"default", DefaultOptions()}, {"exact", exact}, {"strands", strands}} {
		forms = append(forms,
			form{"Search/" + set.name, func(s *Searcher, query []byte) (any, error) {
				return s.Search(query, set.opts)
			}},
			form{"SearchWithStatsContext/" + set.name, func(s *Searcher, query []byte) (any, error) {
				var st SearchStats
				return s.SearchWithStatsContext(context.Background(), query, set.opts, &st)
			}})
	}
	for _, mode := range []CoarseMode{CoarseDistinct, CoarseDiagonal} {
		forms = append(forms, form{"Coarse/" + mode.String(), func(s *Searcher, query []byte) (any, error) {
			return s.Coarse(query, mode, 1)
		}})
	}
	for _, fm := range forms {
		run := func(s *Searcher, query []byte) any {
			t.Helper()
			out, err := fm.call(s, query)
			if err != nil {
				t.Fatalf("%s: %v", fm.name, err)
			}
			if reflect.ValueOf(out).Len() == 0 {
				t.Fatalf("%s: nothing to compare", fm.name)
			}
			return out
		}
		shared := newTestSearcher(t, f)
		r1a := run(shared, f.query)
		r2a := run(shared, q2)
		r1b := run(newTestSearcher(t, f), f.query)
		r2b := run(newTestSearcher(t, f), q2)
		for _, c := range []struct {
			label     string
			got, want any
		}{{"query1", r1a, r1b}, {"query2", r2a, r2b}} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("%s/%s: reused searcher's answer differs from a fresh one's:\n%+v\n%+v", fm.name, c.label, c.got, c.want)
			}
		}
	}
}

func TestRandomQueryScoresLow(t *testing.T) {
	// Negative control: a random query must not rank anything near a
	// true homolog's score.
	f := makeFixture(t, 52, index.Options{K: 9})
	s := newTestSearcher(t, f)
	rng := rand.New(rand.NewSource(53))
	noise := gen.RandomSequence(rng, 250, [4]float64{0.25, 0.25, 0.25, 0.25}, 0)

	opts := DefaultOptions()
	opts.MinScore = 0
	homolog, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	random, err := s.Search(noise, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(homolog) == 0 {
		t.Fatal("homologous query found nothing")
	}
	if len(random) > 0 && random[0].Score*2 >= homolog[0].Score {
		t.Errorf("random query top score %d too close to homolog top %d",
			random[0].Score, homolog[0].Score)
	}
}

func TestModeStrings(t *testing.T) {
	if CoarseDistinct.String() != "distinct" || CoarseDiagonal.String() != "diagonal" {
		t.Error("coarse mode labels wrong")
	}
	if FineFull.String() != "full" || FineBanded.String() != "banded" {
		t.Error("fine mode labels wrong")
	}
	if CoarseMode(42).String() == "" || FineMode(42).String() == "" {
		t.Error("unknown modes must still render")
	}

	// Every coarse mode round-trips through its text form under its
	// unchanged table label.
	labels := map[CoarseMode]string{CoarseDistinct: "distinct", CoarseTotal: "total", CoarseNormalised: "normalised", CoarseDiagonal: "diagonal"}
	for m, label := range labels {
		text, err := m.MarshalText()
		if err != nil || string(text) != label || m.String() != label {
			t.Errorf("mode %d: MarshalText %q, %v; String %q; want %q", int(m), text, err, m, label)
		}
		back := CoarseMode(-1)
		if err := back.UnmarshalText(text); err != nil || back != m {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, m)
		}
	}
	// Empty text keeps the value it was decoded onto; an unknown name and
	// an out-of-range value are the caller's errors.
	m := CoarseTotal
	if err := m.UnmarshalText(nil); err != nil || m != CoarseTotal {
		t.Errorf("UnmarshalText(empty) = %v, %v; want total unchanged", m, err)
	}
	err := m.UnmarshalText([]byte("cosine"))
	if !errors.Is(err, ErrInvalid) || m != CoarseTotal {
		t.Errorf("UnmarshalText(cosine) = %v, %v; want ErrInvalid, total unchanged", m, err)
	}
	for _, want := range []string{`"cosine"`, "distinct", "total", "normalised", "diagonal"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("unknown-name error %v does not name %s", err, want)
		}
	}
	if _, err := (CoarseDiagonal + 1).MarshalText(); !errors.Is(err, ErrInvalid) {
		t.Errorf("MarshalText of an out-of-range mode: %v, want ErrInvalid", err)
	}
}

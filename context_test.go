package nucleodb

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"nucleodb/internal/dna"
)

// searchCtx runs a letter query through the context-taking entry point.
func searchCtx(ctx context.Context, db *Database, query string, opts SearchOptions) ([]Result, error) {
	codes, err := dna.Encode([]byte(query))
	if err != nil {
		return nil, err
	}
	rs, _, err := db.SearchCodesWithStatsContext(ctx, codes, opts)
	return rs, err
}

// TestSearchContextCancelledProperty: for random corpora and queries,
// a search with an already-cancelled context returns
// context.Canceled and no results — regardless of options (strands,
// prescreen, no result limit, exact alignment).
func TestSearchContextCancelledProperty(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for seed := int64(1); seed <= 5; seed++ {
		recs, query, _ := testRecords(seed)
		db, err := Build(recs, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		for _, opts := range []SearchOptions{
			DefaultSearchOptions(),
			{Candidates: 50, MinCoarseHits: 1, Band: 16, Limit: 10, BothStrands: true, Prescreen: 20},
			{Candidates: 100, MinCoarseHits: 2, Band: 24},
			{Candidates: 30, MinCoarseHits: 1, Exact: true, Limit: 5},
		} {
			q := query
			if rng.Intn(2) == 0 {
				q = letters(rng, 120)
			}
			rs, err := searchCtx(ctx, db, q, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("seed %d opts %+v: err = %v, want context.Canceled", seed, opts, err)
			}
			if rs != nil {
				t.Fatalf("seed %d: cancelled search returned %d results", seed, len(rs))
			}
		}
		if _, _, err := db.SearchBatchWithStatsContext(ctx, []string{query, query[:100]}, DefaultSearchOptions(), 2); !errors.Is(err, context.Canceled) {
			t.Fatalf("seed %d: batch err = %v, want context.Canceled", seed, err)
		}
	}
}

// countdownCtx reports nil from its first n Err calls and
// context.Canceled from then on. The batch and the search poll only
// Err, so the cancellation lands at a chosen check, not at a chosen
// time.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(allow int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(allow)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestBatchCancelReachesWorkers: a batch whose context ends after the
// feeder has handed out its one query must stop that query in flight.
// The worker's search observes the cancellation, and the batch reports
// it as the query's error. A worker searching under a context of its
// own would finish the query, and only the batch's closing check would
// see the cancellation.
func TestBatchCancelReachesWorkers(t *testing.T) {
	recs, query, _ := testRecords(5)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	// One query, so the feeder's one check is the first Err call: the
	// worker cannot start before it.
	rs, _, err := db.SearchBatchWithStatsContext(newCountdownCtx(1), []string{query}, DefaultSearchOptions(), 1)
	if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "query 0: ") {
		t.Fatalf("err = %v, want query 0's context.Canceled", err)
	}
	if rs != nil {
		t.Fatalf("cancelled batch returned %d result lists", len(rs))
	}
}

// TestSearchContextBackgroundEquivalence: the context-taking entry
// point under a live, cancellable context is byte-identical to Search —
// the cancellation checks only observe.
func TestSearchContextBackgroundEquivalence(t *testing.T) {
	for seed := int64(7); seed <= 9; seed++ {
		recs, query, _ := testRecords(seed)
		db, err := Build(recs, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []SearchOptions{
			DefaultSearchOptions(),
			{Candidates: 40, MinCoarseHits: 1, Band: 16, Limit: 10, BothStrands: true, Prescreen: 15},
		} {
			plain, err := db.Search(query, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			ctxed, err := searchCtx(ctx, db, query, opts)
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, ctxed) {
				t.Fatalf("seed %d opts %+v: search under a live context diverged from Search:\n%v\nvs\n%v",
					seed, opts, plain, ctxed)
			}
		}
	}
}

// TestSearchContextDeadline: an expired deadline surfaces as
// context.DeadlineExceeded through the facade wrapping.
func TestSearchContextDeadline(t *testing.T) {
	recs, query, _ := testRecords(3)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), -1)
	defer cancel()
	if _, err := searchCtx(ctx, db, query, DefaultSearchOptions()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestBatchStatsErrorLeavesSignificanceZero is the regression test for
// the batch search's handling of a failed Karlin–Altschul
// calibration: with a scoring scheme whose expected score is
// non-negative (statistics undefined), the batch must still return
// results, with Bits and EValue zero on every result — exactly the
// behaviour of single-query Search. Before this was pinned down, the
// statsErr from d.Statistics() was silently captured with no statement
// of intent.
func TestBatchStatsErrorLeavesSignificanceZero(t *testing.T) {
	recs, query, _ := testRecords(21)
	// Match with no mismatch or gap-open penalty: expected score is
	// positive, so local-alignment statistics are undefined.
	cfg := DefaultBuildConfig()
	cfg.Scoring = Scoring{Match: 1, Mismatch: 0, GapOpen: 0, GapExtend: 1}
	db, err := Build(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Statistics(); err == nil {
		t.Fatal("Statistics() succeeded for a non-negative-expectation scoring; test premise broken")
	}
	queries := []string{query, query[:120]}
	batch, err := db.SearchBatch(queries, DefaultSearchOptions(), 2)
	if err != nil {
		t.Fatalf("batch failed on statsErr: %v", err)
	}
	for i, rs := range batch {
		if len(rs) == 0 {
			t.Fatalf("query %d: no results", i)
		}
		single, err := db.Search(queries[i], DefaultSearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rs, single) {
			t.Fatalf("query %d: batch diverged from single search under statsErr", i)
		}
		for _, r := range rs {
			if r.Bits != 0 || r.EValue != 0 {
				t.Fatalf("query %d: result has Bits %v EValue %v, want zero (no statistics)", i, r.Bits, r.EValue)
			}
		}
	}
}

// TestConcurrentSearchesPooled: concurrent Search calls on one
// Database produce the same answers as serial calls (the searcher pool
// hands each goroutine private scratch).
func TestConcurrentSearchesPooled(t *testing.T) {
	recs, query, _ := testRecords(33)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{query, query[:150], query[40:], query[20:200]}
	want := make([][]Result, len(queries))
	for i, q := range queries {
		if want[i], err = db.Search(q, DefaultSearchOptions()); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 8
	errc := make(chan error, rounds*len(queries))
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			go func(i int, q string) {
				rs, err := db.Search(q, DefaultSearchOptions())
				if err == nil && !reflect.DeepEqual(rs, want[i]) {
					err = errors.New("concurrent search diverged from serial")
				}
				errc <- err
			}(i, q)
		}
	}
	for i := 0; i < rounds*len(queries); i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/index"
)

// TestShardedCoarseMatchesSerial is the coarse counterpart of
// TestParallelFineMatchesSerial: for every coarse mode and a spread of
// worker counts, the sharded posting-list walk must reproduce the
// serial search byte for byte — IDs, scores, coarse scores, spans and
// transcripts. Per-sequence interval counters are order-independent
// sums and the final ordering is total (score desc, ID asc), so any
// partition of the lists merges to the identical answer; this test
// locks that equivalence in.
func TestShardedCoarseMatchesSerial(t *testing.T) {
	f := makeFixture(t, 331, index.Options{K: 9, StoreOffsets: true})
	s := newTestSearcher(t, f)

	modes := []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal}
	for _, mode := range modes {
		serial := DefaultOptions()
		serial.CoarseMode = mode
		serial.MinScore = 0
		serial.Limit = 0

		want, err := s.Search(f.query, serial)
		if err != nil {
			t.Fatalf("%v: serial: %v", mode, err)
		}
		for _, workers := range []int{2, 3, 8} {
			sharded := serial
			sharded.CoarseWorkers = workers
			got, err := s.Search(f.query, sharded)
			if err != nil {
				t.Fatalf("%v workers=%d: %v", mode, workers, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v workers=%d: sharded results differ from serial\n got %+v\nwant %+v",
					mode, workers, got, want)
			}
		}
	}
}

// TestShardedCoarseStatsSumToSerial checks the stats contract: the
// per-shard postings counters must sum to exactly the serial values
// (the shards partition the work, they don't repeat or drop any), and
// CoarseShards reports the effective worker count.
func TestShardedCoarseStatsSumToSerial(t *testing.T) {
	f := makeFixture(t, 332, index.Options{K: 9, StoreOffsets: true})
	s := newTestSearcher(t, f)

	for _, mode := range []CoarseMode{CoarseDistinct, CoarseDiagonal} {
		opts := DefaultOptions()
		opts.CoarseMode = mode

		var serial SearchStats
		if _, err := s.SearchWithStats(f.query, opts, &serial); err != nil {
			t.Fatalf("%v: serial: %v", mode, err)
		}
		if serial.CoarseShards != 1 {
			t.Errorf("%v: serial CoarseShards = %d, want 1", mode, serial.CoarseShards)
		}

		const workers = 4
		opts.CoarseWorkers = workers
		var sharded SearchStats
		if _, err := s.SearchWithStats(f.query, opts, &sharded); err != nil {
			t.Fatalf("%v: sharded: %v", mode, err)
		}
		if sharded.CoarseShards != workers {
			t.Errorf("%v: sharded CoarseShards = %d, want %d", mode, sharded.CoarseShards, workers)
		}

		type pair struct {
			name      string
			got, want int64
		}
		for _, p := range []pair{
			{"QueryTerms", int64(sharded.QueryTerms), int64(serial.QueryTerms)},
			{"PostingLists", int64(sharded.PostingLists), int64(serial.PostingLists)},
			{"PostingsDecoded", sharded.PostingsDecoded, serial.PostingsDecoded},
			{"PostingsBytesRead", sharded.PostingsBytesRead, serial.PostingsBytesRead},
			{"CoarseSequences", int64(sharded.CoarseSequences), int64(serial.CoarseSequences)},
			{"CoarseCandidates", int64(sharded.CoarseCandidates), int64(serial.CoarseCandidates)},
			{"Results", int64(sharded.Results), int64(serial.Results)},
		} {
			if p.got != p.want {
				t.Errorf("%v: sharded %s = %d, serial %d", mode, p.name, p.got, p.want)
			}
		}
	}
}

// TestShardedCoarseWithAllKnobs runs the kitchen sink — both strands,
// prescreen, parallel fine phase, sharded coarse phase — against the
// fully serial evaluation. The two parallelism axes compose and every
// phase boundary is crossed, and the answers must still be identical.
func TestShardedCoarseWithAllKnobs(t *testing.T) {
	f := makeFixture(t, 333, index.Options{K: 9, StoreOffsets: true})
	s := newTestSearcher(t, f)

	opts := DefaultOptions()
	opts.BothStrands = true
	opts.Prescreen = 100
	opts.FineWorkers = 4
	opts.CoarseWorkers = 4
	got, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.FineWorkers = 0
	opts.CoarseWorkers = 0
	want, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parallel results differ from serial\n got %+v\nwant %+v", got, want)
	}
}

// TestCoarseWorkersValidation mirrors TestFineWorkersValidation.
func TestCoarseWorkersValidation(t *testing.T) {
	f := makeFixture(t, 334, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.CoarseWorkers = -1
	if _, err := s.Search(f.query, opts); err == nil {
		t.Error("negative CoarseWorkers accepted")
	}
}

// TestBoundedTopKMatchesFullSort drives the internal coarse call both
// ways — bounded heap selection versus the Coarse recall API's full
// sort — and checks the heap's output is exactly the full ranking's
// prefix, for every mode and several budgets including over-budget.
func TestBoundedTopKMatchesFullSort(t *testing.T) {
	f := makeFixture(t, 335, index.Options{K: 9, StoreOffsets: true})
	s := newTestSearcher(t, f)

	for _, mode := range []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal} {
		full, err := s.Coarse(f.query, mode, 2)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		for _, k := range []int{1, 3, 10, len(full), len(full) + 50} {
			got, err := s.coarse(context.Background(), f.query, mode, 2, 1, k, nil)
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

// countdownCtx cancels itself after a fixed number of Err observations.
// The search pipeline polls only ctx.Err() (never Done), so this gives
// a deterministic mid-pipeline cancellation point: the first check in
// SearchWithStatsContext passes, then a check inside the coarse phase
// observes the cancellation.
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

// TestShardedCoarseCancellation cancels mid-coarse and requires
// ctx.Err() back with no partial results — on the serial walk and on
// the sharded walk, where the workers observe the cancellation while
// claiming lists and the merge must then be skipped entirely.
func TestShardedCoarseCancellation(t *testing.T) {
	f := makeFixture(t, 336, index.Options{K: 9, StoreOffsets: true})
	s := newTestSearcher(t, f)

	for _, workers := range []int{0, 4} {
		opts := DefaultOptions()
		opts.CoarseWorkers = workers
		// Allow exactly the entry check in SearchWithStatsContext; the
		// next Err poll — between posting lists (serial) or at a worker's
		// claim (sharded) — observes the cancellation.
		ctx := newCountdownCtx(1)
		rs, err := s.SearchContext(ctx, f.query, opts)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if rs != nil {
			t.Errorf("workers=%d: cancelled search returned %d partial results", workers, len(rs))
		}

		// The searcher must stay usable after a cancelled search.
		if _, err := s.Search(f.query, opts); err != nil {
			t.Errorf("workers=%d: search after cancellation: %v", workers, err)
		}
	}
}

// TestConcurrentSearchersShardedCoarse runs many searchers (one per
// goroutine, per the documented contract) concurrently, each with a
// sharded coarse phase, against a serial reference. Shard state is
// pooled per searcher, so cross-talk between pools — or a shard
// touching another searcher's accumulator — shows up here under -race
// or as a wrong answer.
func TestConcurrentSearchersShardedCoarse(t *testing.T) {
	f := makeFixture(t, 337, index.Options{K: 9, StoreOffsets: true})

	serial := DefaultOptions()
	serial.MinScore = 0
	serial.Limit = 0
	want, err := newTestSearcher(t, f).Search(f.query, serial)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 6
	const rounds = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		s, err := NewSearcher(f.idx, f.store, align.DefaultScoring())
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Searcher, g int) {
			defer wg.Done()
			opts := serial
			opts.CoarseWorkers = 2 + g%3
			for r := 0; r < rounds; r++ {
				got, err := s.Search(f.query, opts)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", g, r, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d round %d: results differ from serial reference", g, r)
					return
				}
			}
		}(s, g)
	}
	wg.Wait()
}

package nucleodb

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"nucleodb/internal/core"
	"nucleodb/internal/dna"
)

// SearchBatch evaluates many queries concurrently and returns the
// per-query result lists in input order. Each worker owns its own
// searcher state (borrowed from the Database's searcher pool) and runs
// one query at a time from start to finish, so throughput scales with
// cores; nothing inside one query runs in parallel. workers ≤ 0 uses
// all CPUs. The first error aborts the batch.
func (d *Database) SearchBatch(queries []string, opts SearchOptions, workers int) ([][]Result, error) {
	out, _, err := d.SearchBatchWithStatsContext(context.Background(), queries, opts, workers)
	return out, err
}

// SearchBatchWithStatsContext is SearchBatch plus the aggregated work
// and latency stats of the whole batch — every per-query SearchStats
// summed field-wise, so TotalTime is accumulated search time across
// workers, not the batch's wall time — and cooperative cancellation:
// when ctx ends, in-flight queries stop at their next posting-list or
// candidate boundary, no further queries start, and the batch returns
// an error wrapping ctx.Err().
//
// Significance calibration follows the same contract as Search: when
// d.Statistics() fails (the scoring scheme admits no local-alignment
// statistics), the batch still runs and every Result reports Bits and
// EValue as zero — calibration failure is a property of the scoring
// scheme, not of any query, so it deliberately does not abort the
// batch. Callers who need to distinguish "no significance available"
// from "significance ≈ 0" should consult d.Statistics() directly.
func (d *Database) SearchBatchWithStatsContext(ctx context.Context, queries []string, opts SearchOptions, workers int) ([][]Result, SearchStats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(queries) {
		workers = len(queries)
	}
	out := make([][]Result, len(queries))
	var agg SearchStats
	if len(queries) == 0 {
		return out, agg, nil
	}

	// Encode everything up front so input errors name the query and
	// arrive before any work runs.
	encoded := make([][]byte, len(queries))
	for i, q := range queries {
		codes, err := dna.Encode([]byte(q))
		if err != nil {
			return nil, agg, core.Invalid(fmt.Errorf("nucleodb: query %d: %w", i, err))
		}
		encoded[i] = codes
	}

	type result struct {
		i   int
		rs  []core.Result
		st  SearchStats
		err error
	}
	// Pin one snapshot for the whole batch: every worker searches the
	// same segment set, so results are mutually consistent even while
	// appends or compactions publish new snapshots mid-batch.
	set := d.snap.Load()
	work := make(chan int)
	results := make(chan result)
	var wg sync.WaitGroup
	searchers := make([]*core.Searcher, workers)
	for w := 0; w < workers; w++ {
		searcher, err := d.searcherFor(set)
		if err != nil {
			return nil, agg, fmt.Errorf("nucleodb: %w", err)
		}
		searchers[w] = searcher
		wg.Add(1)
		go func(s *core.Searcher) {
			defer wg.Done()
			var st SearchStats
			for i := range work {
				rs, err := s.SearchWithStatsContext(ctx, encoded[i], opts.internal(), &st)
				results <- result{i, rs, st, err}
			}
		}(searcher)
	}
	go func() { // the drain goroutine joins the workers via wg.Wait then returns every searcher to the pool before close(results) unblocks the caller
		// Feeding stops as soon as ctx ends; the workers' own ctx
		// checks cover queries already under evaluation.
		for i := range queries {
			if ctx.Err() != nil {
				break
			}
			work <- i
		}
		close(work)
		wg.Wait()
		for _, s := range searchers {
			d.putSearcher(s)
		}
		close(results)
	}()

	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("nucleodb: query %d: %w", r.i, r.err)
			}
			continue
		}
		agg.Add(r.st)
		recordSearchMetrics(r.st)
		out[r.i] = d.results(set, r.rs, len(encoded[r.i]))
	}
	if firstErr == nil && ctx.Err() != nil {
		// The feeder stopped early on a cancelled context without any
		// worker observing it (e.g. ctx ended before the first query
		// was handed out).
		firstErr = fmt.Errorf("nucleodb: %w", ctx.Err())
	}
	if firstErr != nil {
		return nil, agg, firstErr
	}
	return out, agg, nil
}

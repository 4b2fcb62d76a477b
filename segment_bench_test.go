// Benchmarks for the segmented index (experiment E16 in
// EXPERIMENTS.md): the Append stall a searcher-facing writer pays per
// batch, query latency as a function of segment count, and compaction
// throughput. Run with:
//
//	go test -bench='AppendStall|SearchSegments|Compaction' -benchtime=20x
package nucleodb

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	idb "nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
)

// segBenchRecords generates n records of mean length meanLen.
func segBenchRecords(b *testing.B, n, meanLen int, seed int64) []Record {
	b.Helper()
	cfg := gen.DefaultConfig(n, seed)
	cfg.MeanLength = meanLen
	col, err := gen.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]Record, len(col.Records))
	for i, r := range col.Records {
		recs[i] = Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
	}
	return recs
}

// reportP99 attaches a P99 metric (ns) computed from per-op samples.
func reportP99(b *testing.B, samples []time.Duration) {
	if len(samples) == 0 {
		return
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	p99 := samples[int(math.Ceil(0.99*float64(len(samples))))-1]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns/op")
}

// BenchmarkAppendStall measures what a writer pays to make a 10-record
// batch searchable on top of a 10k-record base — the operation a
// serving process performs while queries are in flight.
//
// "segmented" is this tree's Append: index the batch as its own small
// segment and swap the manifest pointer. "monolithic-rebuild" is the
// single-index design it replaced: make the batch searchable by
// rebuilding one index over base + batch with index.Build, so the stall
// grows with the base rather than the batch.
func BenchmarkAppendStall(b *testing.B) {
	base := segBenchRecords(b, 10_000, 300, 16)
	batches := segBenchRecords(b, 2_000, 300, 17)

	b.Run("segmented", func(b *testing.B) {
		db, err := Build(base, DefaultBuildConfig())
		if err != nil {
			b.Fatal(err)
		}
		db.SetMaxSegments(math.MaxInt32) // isolate Append from compaction
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := batches[(i*10)%(len(batches)-10):][:10]
			start := time.Now()
			if err := db.Append(batch); err != nil {
				b.Fatal(err)
			}
			samples = append(samples, time.Since(start))
		}
		b.StopTimer()
		reportP99(b, samples)
	})

	b.Run("monolithic-rebuild", func(b *testing.B) {
		opts := index.Options{K: DefaultBuildConfig().IntervalLength}
		baseCodes := make([][]byte, len(base))
		for i, r := range base {
			baseCodes[i] = dna.MustEncode(r.Sequence)
		}
		samples := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := batches[(i*10)%(len(batches)-10):][:10]
			start := time.Now()
			var store idb.Store
			for j, r := range base {
				store.Add(r.Desc, baseCodes[j])
			}
			for _, r := range batch {
				store.Add(r.Desc, dna.MustEncode(r.Sequence))
			}
			if _, err := index.Build(&store, opts); err != nil {
				b.Fatal(err)
			}
			samples = append(samples, time.Since(start))
		}
		b.StopTimer()
		reportP99(b, samples)
	})
}

// BenchmarkSearchSegments measures query latency against the same
// collection held as 1, 2, 4, 8, and 16 segments: the read-side price
// of deferring compaction.
func BenchmarkSearchSegments(b *testing.B) {
	recs := segBenchRecords(b, 1_200, 900, 18)
	queries := deriveQueries(b, recs, 8)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("segments=%d", k), func(b *testing.B) {
			db := buildSegmentedBench(b, recs, k)
			opts := DefaultSearchOptions()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Search(queries[i%len(queries)], opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompaction measures the background fold: merging a
// 16-segment collection down to one, in bases per second.
func BenchmarkCompaction(b *testing.B) {
	recs := segBenchRecords(b, 1_200, 900, 19)
	var totalBases int64
	for _, r := range recs {
		totalBases += int64(len(r.Sequence))
	}
	b.SetBytes(totalBases)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := buildSegmentedBench(b, recs, 16)
		db.SetMaxSegments(1)
		b.StartTimer()
		for {
			n, err := db.Compact()
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		if db.NumSegments() != 1 {
			b.Fatalf("%d segments after full compaction", db.NumSegments())
		}
	}
}

// buildSegmentedBench builds recs as k equal segments.
func buildSegmentedBench(b *testing.B, recs []Record, k int) *Database {
	b.Helper()
	per := (len(recs) + k - 1) / k
	db, err := Build(recs[:per], DefaultBuildConfig())
	if err != nil {
		b.Fatal(err)
	}
	db.SetMaxSegments(math.MaxInt32)
	for start := per; start < len(recs); start += per {
		end := start + per
		if end > len(recs) {
			end = len(recs)
		}
		if err := db.Append(recs[start:end]); err != nil {
			b.Fatal(err)
		}
	}
	if db.NumSegments() != k {
		b.Fatalf("built %d segments, want %d", db.NumSegments(), k)
	}
	return db
}

// deriveQueries cuts nq 100-base fragments from the collection.
func deriveQueries(b *testing.B, recs []Record, nq int) []string {
	b.Helper()
	var out []string
	for i := 0; len(out) < nq && i < len(recs); i++ {
		if len(recs[i].Sequence) >= 120 {
			out = append(out, recs[i].Sequence[10:110])
		}
	}
	if len(out) < nq {
		b.Fatal("collection too short for query derivation")
	}
	return out
}

// Benchmarks regenerating the paper's tables and figures as testing.B
// targets — one benchmark (family) per experiment, matching the
// experiment index in DESIGN.md. Run them all with:
//
//	go test -bench=. -benchmem
//
// The cafe-bench command prints the same measurements as tables with
// recall columns; these benchmarks give the standard Go tooling view
// (ns/op, allocs) of the identical code paths.
package nucleodb

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/baseline"
	"nucleodb/internal/core"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/experiments"
	"nucleodb/internal/gen"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// benchEnv is the shared collection/workload for all benchmarks,
// built once.
var (
	benchOnce sync.Once
	benchE    *experiments.Env
	benchIdx  *index.Index
	benchErr  error
)

func benchSetup(b *testing.B) (*experiments.Env, *index.Index) {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.Quick(1)
		cfg.BaseBases = 1_000_000
		cfg.NumQueries = 8
		benchE, benchErr = experiments.NewEnv(cfg, cfg.BaseBases)
		if benchErr != nil {
			return
		}
		benchIdx, _, benchErr = benchE.BuildIndex(index.Options{K: cfg.K})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchE, benchIdx
}

// BenchmarkIndexBuild is experiment E1 (Table 1): index construction
// across interval lengths. b.N full builds of the collection's index.
func BenchmarkIndexBuild(b *testing.B) {
	env, _ := benchSetup(b)
	for _, k := range []int{6, 8, 9, 10, 12} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.SetBytes(int64(env.TotalBases()))
			for i := 0; i < b.N; i++ {
				if _, err := index.Build(env.Store, index.Options{K: k}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPostingsDecode is experiment E2 (Table 2): streaming every
// posting list of the index through the compressed-list iterator, the
// coarse phase's inner loop.
func BenchmarkPostingsDecode(b *testing.B) {
	_, idx := benchSetup(b)
	var terms []kmer.Term
	idx.Terms(func(t kmer.Term, df int) { terms = append(terms, t) })
	var it postings.Iterator
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, t := range terms {
			idx.ReaderStats(t, &it)
			for it.Next() {
				n++
			}
			if err := it.Err(); err != nil {
				b.Fatal(err)
			}
		}
		if n != idx.TotalPostings() {
			b.Fatalf("decoded %d postings, want %d", n, idx.TotalPostings())
		}
	}
}

// BenchmarkSearch is experiment E3 (Table 3): one query evaluation per
// iteration for each method, on the same collection and query.
func BenchmarkSearch(b *testing.B) {
	env, idx := benchSetup(b)
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		b.Fatal(err)
	}
	query := env.Queries[0].Codes
	opts := core.DefaultOptions()
	exact := opts
	exact.FineMode = core.FineFull

	b.Run("partitioned-banded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := searcher.Search(query, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("partitioned-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := searcher.Search(query, exact); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sw-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.SWScan(env.Store, query, env.Scoring, 1, 20)
		}
	})
	b.Run("fasta-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.FastaScan(env.Store, query, env.Scoring, baseline.DefaultFastaOptions(), 1, 20)
		}
	})
	b.Run("blast-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			baseline.BlastScan(env.Store, query, env.Scoring, baseline.DefaultBlastOptions(), 1, 20)
		}
	})
	b.Run("partitioned-paged", func(b *testing.B) {
		// The same evaluation against a disk-resident index (E11).
		path := filepath.Join(b.TempDir(), "idx.ndx")
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		if err := idx.Save(f); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		disk, err := index.OpenDisk(path)
		if err != nil {
			b.Fatal(err)
		}
		defer disk.Close()
		pagedSearcher, err := core.NewSearcher(disk, env.Store, env.Scoring)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pagedSearcher.Search(query, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCoarse is experiment E4 (Figure 1): the coarse phase alone,
// whose cost determines how cheaply candidates can be ranked.
func BenchmarkCoarse(b *testing.B) {
	env, idx := benchSetup(b)
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		b.Fatal(err)
	}
	query := env.Queries[0].Codes
	for i := 0; i < b.N; i++ {
		if _, err := searcher.Coarse(query, core.CoarseDistinct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchStopped is experiment E5 (Table 4): query cost under
// index stopping.
func BenchmarkSearchStopped(b *testing.B) {
	env, _ := benchSetup(b)
	for _, stop := range []float64{0, 0.01, 0.10} {
		idx, err := index.Build(env.Store, index.Options{K: 9, StopFraction: stop})
		if err != nil {
			b.Fatal(err)
		}
		searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
		if err != nil {
			b.Fatal(err)
		}
		query := env.Queries[0].Codes
		b.Run(fmt.Sprintf("stop=%.0f%%", stop*100), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := searcher.Search(query, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkScaling is experiment E6 (Figure 2): partitioned query cost
// across collection sizes (the exhaustive comparison lives in
// BenchmarkSearch/sw-scan; cafe-bench prints both against each size).
func BenchmarkScaling(b *testing.B) {
	for _, bases := range []int{250_000, 500_000, 1_000_000} {
		cfg := experiments.Quick(int64(bases))
		cfg.NumQueries = 4
		env, err := experiments.NewEnv(cfg, bases)
		if err != nil {
			b.Fatal(err)
		}
		idx, _, err := env.BuildIndex(index.Options{K: 9})
		if err != nil {
			b.Fatal(err)
		}
		searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
		if err != nil {
			b.Fatal(err)
		}
		query := env.Queries[0].Codes
		b.Run(fmt.Sprintf("bases=%d", bases), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := searcher.Search(query, core.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDirectCoding is experiment E7 (Table 5): sequence-store
// coding and decoding throughput.
func BenchmarkDirectCoding(b *testing.B) {
	env, _ := benchSetup(b)
	n := env.Store.Len()
	seqs := make([][]byte, n)
	encoded := make([][]byte, n)
	var dc dna.DirectCoder
	totalBases := 0
	for id := 0; id < n; id++ {
		seqs[id] = env.Store.Sequence(id)
		encoded[id] = dc.Encode(nil, seqs[id])
		totalBases += len(seqs[id])
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(totalBases))
		for i := 0; i < b.N; i++ {
			var coder dna.DirectCoder
			buf := make([]byte, 0, totalBases/3)
			for _, s := range seqs {
				buf = coder.Encode(buf[:0], s)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(totalBases))
		for i := 0; i < b.N; i++ {
			var coder dna.DirectCoder
			for _, e := range encoded {
				if _, _, err := coder.Decode(e); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("store-random-access", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.Store.Sequence(i % n)
		}
	})
}

// BenchmarkCoarseModes is experiment E8 (Table 6): the coarse-ranking
// ablation.
func BenchmarkCoarseModes(b *testing.B) {
	env, idx := benchSetup(b)
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		b.Fatal(err)
	}
	query := env.Queries[0].Codes
	for _, mode := range []core.CoarseMode{core.CoarseDistinct, core.CoarseTotal, core.CoarseNormalised, core.CoarseDiagonal} {
		b.Run(mode.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := searcher.Coarse(query, mode, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlign measures the alignment kernels underlying everything:
// cost per DP cell of the full and banded Smith–Waterman.
func BenchmarkAlign(b *testing.B) {
	env, _ := benchSetup(b)
	a := env.Queries[0].Codes
	s := env.Store.Sequence(0)
	scoring := align.DefaultScoring()
	b.Run("local-score", func(b *testing.B) {
		b.SetBytes(int64(len(a)) * int64(len(s)) / 1024) // "KB" = kilo-cells
		for i := 0; i < b.N; i++ {
			align.LocalScore(a, s, scoring)
		}
	})
	b.Run("banded-32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.BandedLocalScore(a, s, 0, 32, scoring)
		}
	})
	b.Run("local-traceback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.Local(a, s, scoring)
		}
	})
}

// BenchmarkStoreBuild measures store construction from records,
// dominated by direct coding.
func BenchmarkStoreBuild(b *testing.B) {
	env, _ := benchSetup(b)
	recs := make([]dna.Record, env.Store.Len())
	for i := range recs {
		recs[i] = dna.Record{Desc: "r", Codes: env.Store.Sequence(i)}
	}
	b.SetBytes(int64(env.TotalBases()))
	for i := 0; i < b.N; i++ {
		db.FromRecords(recs)
	}
}

// BenchmarkWorkloadGen measures synthetic collection generation, the
// substrate every experiment rests on.
func BenchmarkWorkloadGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := gen.Generate(gen.DefaultConfig(200, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryLength is experiment E10: partitioned query cost
// across query lengths.
func BenchmarkQueryLength(b *testing.B) {
	env, idx := benchSetup(b)
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		b.Fatal(err)
	}
	full := env.Queries[0].Codes
	opts := core.DefaultOptions()
	for _, qlen := range []int{100, 200, 400} {
		q := full
		if len(q) > qlen {
			q = q[:qlen]
		}
		b.Run(fmt.Sprintf("qlen=%d", len(q)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := searcher.Search(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAlignVariants measures the extended aligners against the
// baseline kernels: linear-space traceback and repeated HSPs.
func BenchmarkAlignVariants(b *testing.B) {
	env, _ := benchSetup(b)
	a := env.Queries[0].Codes
	s := env.Store.Sequence(0)
	scoring := align.DefaultScoring()
	b.Run("local-linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.LocalLinear(a, s, scoring)
		}
	})
	b.Run("local-all-3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			align.LocalAll(a, s, scoring, 50, 3)
		}
	})
}

// BenchmarkSearchBatch measures multi-query throughput with per-worker
// search state, against the serialised path.
func BenchmarkSearchBatch(b *testing.B) {
	env, idx := benchSetup(b)
	searcher, err := core.NewSearcher(idx, env.Store, env.Scoring)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([][]byte, len(env.Queries))
	for i := range env.Queries {
		queries[i] = env.Queries[i].Codes
	}
	opts := core.DefaultOptions()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := searcher.Search(q, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkIndexMerge measures segment merging (Database.Append's
// cost) against a full rebuild of the combined collection.
func BenchmarkIndexMerge(b *testing.B) {
	env, idx := benchSetup(b)
	segCfg := experiments.Quick(7)
	segEnv, err := experiments.NewEnv(segCfg, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	segIdx, _, err := segEnv.BuildIndex(index.Options{K: 9})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.Merge(idx, segIdx); err != nil {
				b.Fatal(err)
			}
		}
	})
	_ = env
}

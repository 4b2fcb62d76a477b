package main

import (
	"time"

	"nucleodb"
	"nucleodb/internal/align"
	"nucleodb/internal/core"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/eval"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// subjectsPerQuery is how many of a query's own top results the
// alignment kernels are timed on.
const subjectsPerQuery = 3

// coreOptions maps the workload's search options onto the engine's, as
// the facade does for the fields the workloads set.
func coreOptions(o nucleodb.SearchOptions) core.Options {
	c := core.DefaultOptions()
	c.Candidates, c.MinCoarseHits, c.Band, c.MinScore, c.Limit = o.Candidates, o.MinCoarseHits, o.Band, o.MinScore, o.Limit
	if o.Exact {
		c.FineMode = core.FineFull
	}
	return c
}

// layerReplay times the public functions of each layer directly, from
// outside the program, on n of the workload's queries: against the
// served database for the facade, and against a store, index and
// searcher of the benchmark's own, built with the same options, for the
// layers below it. It adds what it measures to layers.
func layerReplay(s *stream, sv *served, records []nucleodb.Record, first, n int, layers map[string]float64) error {
	var (
		store  db.Store
		encode time.Duration
		bases  int
	)
	for _, r := range records {
		var (
			codes []byte
			err   error
		)
		encode += eval.Timed(func() { codes, err = dna.Encode([]byte(r.Sequence)) })
		if err != nil {
			return err
		}
		bases += len(codes)
		store.Add(r.Desc, codes)
	}
	cfg := nucleodb.DefaultBuildConfig()
	start := time.Now()
	idx, err := index.Build(&store, index.Options{K: cfg.IntervalLength, StoreOffsets: cfg.StoreOffsets})
	if err != nil {
		return err
	}
	layers["index.build_s"] = time.Since(start).Seconds()
	layers["dna.encode_ns_per_base"] = ratio(float64(encode), float64(bases))
	layers["index.bytes_per_base"] = ratio(float64(idx.SizeBytes()), float64(bases))
	layers["db.store_bytes_per_base"] = ratio(float64(store.EncodedBytes()), float64(bases))

	scoring := align.DefaultScoring()
	searcher, err := core.NewSearcher(idx, &store, scoring)
	if err != nil {
		return err
	}
	opts := s.w.options()
	copts := coreOptions(opts)

	var (
		facadeSelf, coarse, extract, decode, sequence time.Duration
		banded, bandedTB, striped, local              time.Duration
		queryBases, lists, posts, postBytes, seqBases float64
		bandedCells, localCells                       float64 // localCells also counts the striped kernel's
		terms                                         []kmer.Term
		it                                            postings.Iterator
	)
	for i := 0; i < n; i++ {
		q := s.request(first + i)
		queryBases += float64(len(q.codes))

		var st nucleodb.SearchStats
		var searchErr error
		facadeSelf += eval.Timed(func() { _, st, searchErr = sv.db.SearchCodesWithStats(q.codes, opts) })
		if searchErr != nil {
			return searchErr
		}
		facadeSelf -= st.TotalTime

		coarse += eval.Timed(func() { _, searchErr = searcher.Coarse(q.codes, copts.CoarseMode, copts.MinCoarseHits) })
		if searchErr != nil {
			return searchErr
		}
		extract += eval.Timed(func() { terms = idx.Coder().Extract(terms[:0], q.codes) })
		seen := map[kmer.Term]bool{}
		for _, t := range terms {
			if seen[t] {
				continue
			}
			seen[t] = true
			df, size := idx.ReaderStats(t, &it)
			if df == 0 {
				continue
			}
			lists++
			posts += float64(df)
			postBytes += float64(size)
			decode += eval.Timed(func() {
				for it.Next() {
				}
			})
			if err := it.Err(); err != nil {
				return err
			}
		}

		results, err := searcher.Search(q.codes, copts)
		if err != nil {
			return err
		}
		for _, r := range results[:min(len(results), subjectsPerQuery)] {
			var subject []byte
			sequence += eval.Timed(func() { subject = store.Sequence(r.ID) })
			seqBases += float64(len(subject))

			var al align.Alignment
			local += eval.Timed(func() { al = align.Local(q.codes, subject, scoring) })
			localCells += float64(align.LocalCells(len(q.codes), len(subject)))
			striped += eval.Timed(func() { align.StripedLocalScore(q.codes, subject, scoring) })
			// The band is centred on the diagonal of the optimal
			// alignment, as the engine centres it on the best seed.
			centre := al.BStart - al.AStart
			banded += eval.Timed(func() { align.BandedLocalScore(q.codes, subject, centre, opts.Band, scoring) })
			bandedTB += eval.Timed(func() { align.BandedLocal(q.codes, subject, centre, opts.Band, scoring) })
			bandedCells += float64(align.BandedCells(len(q.codes), len(subject), centre, opts.Band))
		}
	}
	layers["nucleodb.self_us"] = us(facadeSelf) / float64(n)
	layers["core.replay_coarse_us"] = us(coarse) / float64(n)
	layers["kmer.extract_ns_per_base"] = ratio(float64(extract), queryBases)
	layers["index.lists_per_query"] = lists / float64(n)
	layers["index.postings_per_query"] = posts / float64(n)
	layers["index.postings_bytes_per_query"] = postBytes / float64(n)
	layers["postings.decode_ns_per_posting"] = ratio(float64(decode), posts)
	layers["db.sequence_ns_per_base"] = ratio(float64(sequence), seqBases)
	layers["align.local_cells_per_us"] = ratio(localCells, us(local))
	layers["align.striped_cells_per_us"] = ratio(localCells, us(striped))
	layers["align.banded_score_cells_per_us"] = ratio(bandedCells, us(banded))
	layers["align.banded_traceback_cells_per_us"] = ratio(bandedCells, us(bandedTB))
	return nil
}

// Command cafe-inspect prints diagnostics for a database built by
// cafe-build: the per-segment table, storage totals, interval-vocabulary
// statistics, the posting-list length distribution, and the most
// frequent intervals — the numbers that inform interval-length,
// stopping and compaction choices. Segments partition the sequences, so
// an interval's document frequency in the collection is the sum of its
// per-segment frequencies, and that sum is what the distribution and
// the top list report.
//
// Usage:
//
//	cafe-inspect -db ./mydb
//	cafe-inspect -db ./mydb -top 20
//	cafe-inspect -db ./mydb -json   # machine-readable summary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"

	"nucleodb/internal/kmer"
	"nucleodb/internal/segment"
)

type segSummary struct {
	Name       string `json:"name"`
	Seqs       int    `json:"seqs"`
	Deleted    int    `json:"deleted"`
	LiveBases  int    `json:"live_bases"`
	StoreBytes int    `json:"store_bytes"`
	IndexBytes int    `json:"index_bytes"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-inspect: ")

	var (
		dbDir  = flag.String("db", "", "database directory (required)")
		top    = flag.Int("top", 10, "how many of the most frequent intervals to list")
		asJSON = flag.Bool("json", false, "print the storage/index summary as JSON and exit")
	)
	flag.Parse()
	if *dbDir == "" {
		flag.Usage()
		os.Exit(2)
	}

	set, nextSeg, err := segment.OpenDir(*dbDir, false)
	if err != nil {
		log.Fatal(err)
	}
	var segs []segSummary
	var storeBytes, indexBytes, postingsBytes, totalPostings, termsStopped int
	df := make(map[kmer.Term]int) // collection document frequency per interval
	for _, g := range set.Segments() {
		segs = append(segs, segSummary{
			Name:       g.Name,
			Seqs:       g.Len(),
			Deleted:    g.NumDeleted(),
			LiveBases:  g.LiveBases(),
			StoreBytes: g.Store.EncodedBytes(),
			IndexBytes: g.Index.SizeBytes(),
		})
		storeBytes += g.Store.EncodedBytes()
		indexBytes += g.Index.SizeBytes()
		postingsBytes += g.Index.PostingsBytes()
		totalPostings += g.Index.TotalPostings()
		termsStopped += g.Index.NumStopped()
		g.Index.Terms(func(t kmer.Term, n int) { df[t] += n })
	}
	opts := set.Options()
	coder := set.Segments()[0].Index.Coder()

	if *asJSON {
		summary := map[string]any{
			"segments":        segs,
			"next_seg":        nextSeg,
			"sequences":       set.NumSeqs(),
			"deleted":         set.NumDeleted(),
			"bases":           set.TotalBases(),
			"store_bytes":     storeBytes,
			"index_bytes":     indexBytes,
			"postings_bytes":  postingsBytes,
			"total_postings":  totalPostings,
			"interval_length": opts.K,
			"offsets_stored":  opts.StoreOffsets,
			"terms_indexed":   len(df),
			"terms_stopped":   termsStopped,
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			log.Fatal(err)
		}
		return
	}

	fmt.Printf("database %s\n\n", *dbDir)
	fmt.Printf("segments: %d (next file number %d)\n", set.Len(), nextSeg)
	for _, g := range segs {
		fmt.Printf("  %-12s %8d seqs", g.Name, g.Seqs)
		if g.Deleted > 0 {
			fmt.Printf(" (%d tombstoned)", g.Deleted)
		}
		fmt.Printf("  %10d live bases  store %8d B  index %8d B\n", g.LiveBases, g.StoreBytes, g.IndexBytes)
	}

	fmt.Printf("\nstore:\n")
	fmt.Printf("  sequences:        %d (%d tombstoned)\n", set.NumSeqs(), set.NumDeleted())
	fmt.Printf("  live bases:       %d (%.2f Mbases)\n", set.TotalBases(), float64(set.TotalBases())/1e6)
	fmt.Printf("  compressed:       %d bytes", storeBytes)
	if set.TotalBases() > 0 {
		fmt.Printf(" (%.3f bits/base)", 8*float64(storeBytes)/float64(set.TotalBases()))
	}
	fmt.Println()
	var lens []int
	for id := 0; id < set.NumSeqs(); id++ {
		if !set.Deleted(id) {
			lens = append(lens, set.SeqLen(id))
		}
	}
	sort.Ints(lens)
	if len(lens) > 0 {
		fmt.Printf("  length min/med/max: %d / %d / %d\n", lens[0], lens[len(lens)/2], lens[len(lens)-1])
	}

	fmt.Printf("\nindex:\n")
	fmt.Printf("  size:             %d bytes\n", indexBytes)
	fmt.Printf("  interval length:  %d (vocabulary %d)\n", opts.K, coder.NumTerms())
	fmt.Printf("  offsets stored:   %v\n", opts.StoreOffsets)
	fmt.Printf("  terms indexed:    %d (%.1f%% of vocabulary)\n",
		len(df), 100*float64(len(df))/float64(coder.NumTerms()))
	fmt.Printf("  terms stopped:    %d summed over segments (fraction %.4f)\n", termsStopped, opts.StopFraction)
	fmt.Printf("  postings:         %d entries, %d bytes compressed\n", totalPostings, postingsBytes)
	if totalPostings > 0 {
		fmt.Printf("  bits/posting:     %.2f\n", 8*float64(postingsBytes)/float64(totalPostings))
	}

	all := make([]termDF, 0, len(df))
	for t, n := range df {
		all = append(all, termDF{t, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].df != all[j].df {
			return all[i].df > all[j].df
		}
		return all[i].term < all[j].term
	})
	if len(all) > 0 {
		// all is sorted by descending df: percentile p sits p of the way
		// back from the end.
		pct := func(p float64) int { return all[len(all)-1-int(p*float64(len(all)-1))].df }
		fmt.Printf("\nposting-list lengths (sequences per interval):\n")
		fmt.Printf("  p50 %d   p90 %d   p99 %d   max %d\n", pct(0.50), pct(0.90), pct(0.99), pct(1))
		singletons := 0
		for _, e := range all {
			if e.df == 1 {
				singletons++
			}
		}
		fmt.Printf("  singleton lists:  %d (%.1f%%)\n", singletons, 100*float64(singletons)/float64(len(all)))
	}
	if n := min(*top, len(all)); n > 0 {
		fmt.Printf("\nmost frequent intervals:\n")
		for _, e := range all[:n] {
			fmt.Printf("  %s  in %d sequences\n", coder.String(e.term), e.df)
		}
	}
}

type termDF struct {
	term kmer.Term
	df   int
}

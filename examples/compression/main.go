// Compression walkthrough: the storage side of the paper. Shows how
// the same collection's footprint changes with the interval length and
// index stopping, and how the direct-coded
// sequence store compares with text. Use it to choose build settings
// for a real collection.
package main

import (
	"fmt"
	"log"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
)

func main() {
	col, err := gen.Generate(gen.DefaultConfig(2000, 3))
	if err != nil {
		log.Fatal(err)
	}
	records := make([]nucleodb.Record, len(col.Records))
	asciiBytes := 0
	for i, r := range col.Records {
		records[i] = nucleodb.Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
		asciiBytes += len(r.Codes)
	}
	fmt.Printf("collection: %d sequences, %.2f Mbases (%.2f MB as text)\n\n",
		len(records), float64(asciiBytes)/1e6, float64(asciiBytes)/1e6)

	fmt.Println("interval length vs index size:")
	fmt.Printf("  %3s  %12s  %12s  %10s\n", "k", "store", "index", "terms")
	for _, k := range []int{6, 8, 9, 10, 12} {
		cfg := nucleodb.DefaultBuildConfig()
		cfg.IntervalLength = k
		db, err := nucleodb.Build(records, cfg)
		if err != nil {
			log.Fatal(err)
		}
		st := db.Stats()
		fmt.Printf("  %3d  %9.2f MB  %9.2f MB  %10d\n",
			k, float64(st.StoreBytes)/1e6, float64(st.IndexBytes)/1e6, st.TermsIndexed)
	}

	fmt.Println("\nindex stopping at k=9 (dropping the most frequent intervals):")
	fmt.Printf("  %6s  %12s  %10s\n", "stop", "index", "stopped")
	for _, stop := range []float64{0, 0.01, 0.05, 0.10} {
		cfg := nucleodb.DefaultBuildConfig()
		cfg.StopFraction = stop
		db, err := nucleodb.Build(records, cfg)
		if err != nil {
			log.Fatal(err)
		}
		st := db.Stats()
		fmt.Printf("  %5.1f%%  %9.2f MB  %10d\n",
			stop*100, float64(st.IndexBytes)/1e6, st.TermsStopped)
	}

	// The store itself: direct coding ≈ 2 bits/base, lossless.
	cfg := nucleodb.DefaultBuildConfig()
	db, err := nucleodb.Build(records, cfg)
	if err != nil {
		log.Fatal(err)
	}
	st := db.Stats()
	fmt.Printf("\nsequence store: %.2f MB = %.3f bits/base (text is 8 bits/base), lossless with wildcards\n",
		float64(st.StoreBytes)/1e6, 8*float64(st.StoreBytes)/float64(st.TotalBases))
}

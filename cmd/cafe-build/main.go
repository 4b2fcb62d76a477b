// Command cafe-build constructs a nucleodb database (compressed
// sequence store plus interval index) from a FASTA collection.
//
// Usage:
//
//	cafe-build -in collection.fasta -db ./mydb -k 9 [-segment-size 10000]
//
// The output directory holds a MANIFEST plus one store and index file
// per segment, and supports crash-safe incremental Append, Delete and
// background compaction when reopened. -segment-size indexes the
// collection in segments of that many records; without it the whole
// collection is one segment.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"nucleodb"
	"nucleodb/internal/dna"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-build: ")

	var (
		in      = flag.String("in", "", "input FASTA path (required)")
		out     = flag.String("db", "", "output database directory (required)")
		k       = flag.Int("k", 9, "interval (substring) length, 1-12")
		offsets = flag.Bool("offsets", true, "store occurrence offsets (enables diagonal ranking)")
		stop    = flag.Float64("stop", 0, "index stopping: fraction of most frequent intervals to drop")
		workers = flag.Int("workers", 0, "build parallelism (0 = all CPUs)")
		mask    = flag.String("mask", "", "spaced seed mask (e.g. 111010010100110111); overrides -k")
		segSize = flag.Int("segment-size", 0, "records per segment (0 = the whole collection in one segment)")
	)
	flag.Parse()
	if *in == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	cfg := nucleodb.DefaultBuildConfig()
	cfg.IntervalLength = *k
	cfg.StoreOffsets = *offsets
	cfg.StopFraction = *stop
	cfg.Workers = *workers
	cfg.SpacedMask = *mask

	start := time.Now()
	var db *nucleodb.Database
	if *segSize > 0 {
		db, err = buildSegmented(f, cfg, *segSize)
	} else {
		db, err = nucleodb.BuildFromFasta(f, cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	buildTime := time.Since(start)
	if err := db.SaveSegmented(*out); err != nil {
		log.Fatal(err)
	}

	st := db.Stats()
	fmt.Printf("built %s in %v\n", *out, buildTime.Round(time.Millisecond))
	fmt.Printf("  segments:       %d\n", st.Segments)
	fmt.Printf("  sequences:      %d (%.1f Mbases)\n", st.NumSequences, float64(st.TotalBases)/1e6)
	fmt.Printf("  store:          %.2f MB (%.3f bits/base)\n",
		float64(st.StoreBytes)/1e6, 8*float64(st.StoreBytes)/float64(st.TotalBases))
	fmt.Printf("  index:          %.2f MB (%d terms, %d stopped)\n",
		float64(st.IndexBytes)/1e6, st.TermsIndexed, st.TermsStopped)
}

// buildSegmented streams the FASTA input in batches of segSize records:
// the first batch builds the database, each later batch appends as its
// own segment (compaction stays off so the chunking is preserved for
// SaveSegmented). Peak memory is one batch's raw records plus the
// growing database, like BuildFromFasta.
func buildSegmented(r io.Reader, cfg nucleodb.BuildConfig, segSize int) (*nucleodb.Database, error) {
	fr := dna.NewFastaReader(r)
	var db *nucleodb.Database
	batch := make([]nucleodb.Record, 0, segSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		var err error
		if db == nil {
			db, err = nucleodb.Build(batch, cfg)
			if err == nil {
				db.SetMaxSegments(1 << 30)
			}
		} else {
			err = db.Append(batch)
		}
		batch = batch[:0]
		return err
	}
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		batch = append(batch, nucleodb.Record{Desc: rec.Desc, Sequence: dna.String(rec.Codes)})
		if len(batch) == segSize {
			if err := flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if db == nil {
		return nucleodb.Build(nil, cfg)
	}
	return db, nil
}

// Command cafe-merge combines two databases built by cafe-build into
// one, without re-indexing: B's segments are placed after A's, so B's
// record ids continue where A's end, tombstones carry over, and every
// segment's store and index are written out as they are. Both databases
// must have been built with the same index options.
//
// Usage:
//
//	cafe-merge -a ./db1 -b ./db2 -out ./combined
//	cafe-merge -compact ./mydb [-max-segments 1]
//
// With -compact it instead folds a database down to at most
// -max-segments segments in place (each adjacent run re-indexed as one
// segment with index.Build), reclaiming tombstoned records — the
// follow-up to a merge, a cafe-build -segment-size or a run of Appends.
// The rewrite is crash-safe: each step writes the merged segment files
// and swaps the manifest atomically before removing superseded files.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"nucleodb"
	"nucleodb/internal/segment"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-merge: ")

	var (
		aDir    = flag.String("a", "", "first database directory (required unless -compact)")
		bDir    = flag.String("b", "", "second database directory (required unless -compact)")
		out     = flag.String("out", "", "output database directory (required unless -compact)")
		compact = flag.String("compact", "", "database directory to compact in place")
		maxSegs = flag.Int("max-segments", 1, "with -compact: fold down to at most this many segments")
	)
	flag.Parse()
	if *compact != "" {
		compactDir(*compact, *maxSegs)
		return
	}
	if *aDir == "" || *bDir == "" || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	start := time.Now()
	a, _, err := segment.OpenDir(*aDir, false)
	if err != nil {
		log.Fatal(err)
	}
	b, _, err := segment.OpenDir(*bDir, false)
	if err != nil {
		log.Fatal(err)
	}
	var segs []*segment.Segment
	base := 0
	for _, in := range []*segment.Set{a, b} {
		for _, g := range in.Segments() {
			r, err := segment.New(segment.SegName(len(segs)), g.Store, g.Index, base)
			if err != nil {
				log.Fatal(err)
			}
			if r, err = r.WithDeleted(g.DeletedList()); err != nil {
				log.Fatal(err)
			}
			segs = append(segs, r)
			base += g.Len()
		}
	}
	// NewSet refuses segments built with different index options, before
	// anything is written.
	set, err := segment.NewSet(segs)
	if err != nil {
		log.Fatalf("%s and %s: %v", *aDir, *bDir, err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		log.Fatal(err)
	}
	for _, g := range segs {
		if err := segment.WriteFiles(*out, g); err != nil {
			log.Fatal(err)
		}
	}
	if err := segment.WriteManifest(*out, set, len(segs)); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("merged %d + %d sequences (%.1f Mbases) into %s (%d segments) in %v\n",
		a.NumSeqs(), b.NumSeqs(), float64(set.TotalBases())/1e6,
		*out, set.Len(), time.Since(start).Round(time.Millisecond))
}

func compactDir(dir string, maxSegs int) {
	d, err := nucleodb.Open(dir, nucleodb.DefaultScoring())
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	before := d.Stats()
	start := time.Now()
	d.SetMaxSegments(maxSegs)
	folded := 0
	for {
		n, err := d.Compact()
		if err != nil {
			log.Fatal(err)
		}
		if n == 0 {
			break
		}
		folded += n
	}
	after := d.Stats()
	fmt.Printf("compacted %s: %d -> %d segments (folded %d) in %v\n",
		dir, before.Segments, after.Segments, folded, time.Since(start).Round(time.Millisecond))
	if before.Deleted > 0 {
		fmt.Printf("  reclaimed %d tombstoned records (%d remain)\n",
			before.Deleted-after.Deleted, after.Deleted)
	}
}

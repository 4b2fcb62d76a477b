// Command cafe-search evaluates queries against a nucleodb database
// built by cafe-build. Queries come from a FASTA file or a literal
// sequence on the command line.
//
// Usage:
//
//	cafe-search -db ./mydb -q ACGTTGCA...
//	cafe-search -db ./mydb -queries queries.fasta -limit 10
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"nucleodb"
	"nucleodb/internal/dna"
)

// indent prefixes every non-empty line of text.
func indent(text, prefix string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, l := range lines {
		if l != "" {
			lines[i] = prefix + l
		}
	}
	return strings.Join(lines, "\n")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-search: ")

	var (
		dbDir     = flag.String("db", "", "database directory (required)")
		q         = flag.String("q", "", "literal query sequence")
		queryFile = flag.String("queries", "", "FASTA file of queries")
		show      = flag.Int("show", 0, "print full alignments for the top N answers")
		paged     = flag.Bool("paged", false, "read posting lists from disk on demand instead of loading the index")
		tsv       = flag.Bool("tsv", false, "tab-separated output: query, rank, id, desc, score, bits, evalue, strand, spans")
		stats     = flag.Bool("stats", false, "print per-stage work counters and latencies after each query, and process totals at the end")
	)
	opts := nucleodb.DefaultSearchOptions()
	flag.IntVar(&opts.Candidates, "candidates", opts.Candidates, "coarse-phase candidate budget")
	flag.IntVar(&opts.Limit, "limit", opts.Limit, "answers per query")
	flag.BoolVar(&opts.Exact, "exact", opts.Exact, "exact (unbanded) fine alignment")
	flag.TextVar(&opts.CoarseMode, "coarse-mode", opts.CoarseMode, fmt.Sprintf("coarse ranking mode: %v, %v, %v or %v",
		nucleodb.CoarseDistinct, nucleodb.CoarseTotal, nucleodb.CoarseNormalised, nucleodb.CoarseDiagonal))
	flag.IntVar(&opts.MinScore, "minscore", opts.MinScore, "minimum alignment score")
	flag.BoolVar(&opts.BothStrands, "strands", opts.BothStrands, "search both strands")
	flag.Parse()
	if *dbDir == "" || (*q == "" && *queryFile == "") {
		flag.Usage()
		os.Exit(2)
	}

	open := nucleodb.Open
	if *paged {
		open = nucleodb.OpenPaged
	}
	db, err := open(*dbDir, nucleodb.DefaultScoring())
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	type namedQuery struct {
		name string
		seq  string
	}
	var queries []namedQuery
	if *q != "" {
		queries = append(queries, namedQuery{"query", *q})
	}
	if *queryFile != "" {
		f, err := os.Open(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		recs, err := dna.ReadAll(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		for _, r := range recs {
			queries = append(queries, namedQuery{r.Desc, dna.String(r.Codes)})
		}
	}

	for _, nq := range queries {
		start := time.Now()
		rs, st, err := db.SearchWithStats(nq.seq, opts)
		if err != nil {
			log.Fatalf("%s: %v", nq.name, err)
		}
		if *tsv {
			if *stats {
				printStats(os.Stderr, st)
			}
			for i, r := range rs {
				strand := "+"
				if r.Reverse {
					strand = "-"
				}
				fmt.Printf("%s\t%d\t%d\t%s\t%d\t%.1f\t%.3g\t%s\t%d\t%d\t%d\t%d\n",
					nq.name, i+1, r.ID, r.Desc, r.Score, r.Bits, r.EValue, strand,
					r.QueryStart, r.QueryEnd, r.SubjectStart, r.SubjectEnd)
			}
			continue
		}
		fmt.Printf("query %s (%d bases): %d answers in %v\n",
			nq.name, len(nq.seq), len(rs), time.Since(start).Round(time.Microsecond))
		for i, r := range rs {
			strand := ""
			if r.Reverse {
				strand = " (minus strand)"
			}
			fmt.Printf("  %2d. score %-6d bits %-7.1f E %-10.2g seq %-6d %s%s",
				i+1, r.Score, r.Bits, r.EValue, r.ID, r.Desc, strand)
			if r.Identity > 0 {
				fmt.Printf("  (identity %.0f%%, q[%d:%d] s[%d:%d])",
					100*r.Identity, r.QueryStart, r.QueryEnd, r.SubjectStart, r.SubjectEnd)
			}
			fmt.Println()
			if i < *show {
				text, err := db.Alignment(nq.seq, r)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Println(indent(text, "      "))
			}
		}
		if *stats {
			printStats(os.Stdout, st)
		}
	}
	if *stats && len(queries) > 1 {
		// In -tsv mode stdout is the machine-readable stream; totals
		// join the per-query stats on stderr.
		dst := io.Writer(os.Stdout)
		if *tsv {
			dst = os.Stderr
		}
		fmt.Fprintln(dst, "\nprocess totals:")
		if err := nucleodb.WriteMetricsText(dst); err != nil {
			log.Fatal(err)
		}
	}
}

// printStats renders one query's per-stage breakdown. Counter fields
// are stable (the clitest golden test keys on them); latencies vary
// run to run.
func printStats(w io.Writer, st nucleodb.SearchStats) {
	fmt.Fprintf(w, "  stats: strands %d  terms %d  lists %d  postings %d  bytes %d\n",
		st.Strands, st.QueryTerms, st.PostingLists, st.PostingsDecoded, st.PostingsBytesRead)
	fmt.Fprintf(w, "    coarse:    %-10v sequences %d, candidates %d\n",
		st.CoarseTime.Round(time.Microsecond), st.CoarseSequences, st.CoarseCandidates)
	fmt.Fprintf(w, "    prescreen: %-10v rejected %d\n",
		st.PrescreenTime.Round(time.Microsecond), st.PrescreenRejections)
	fmt.Fprintf(w, "    fine:      %-10v alignments %d, dp-cells %d, bitvector %d\n",
		st.FineTime.Round(time.Microsecond), st.FineAlignments, st.FineDPCells, st.BitvectorAlignments)
	fmt.Fprintf(w, "    traceback: %-10v alignments %d, dp-cells %d\n",
		st.TracebackTime.Round(time.Microsecond), st.TracebackAlignments, st.TracebackDPCells)
	fmt.Fprintf(w, "    total:     %-10v results %d\n",
		st.TotalTime.Round(time.Microsecond), st.Results)
}

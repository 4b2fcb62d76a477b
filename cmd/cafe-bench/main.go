// Command cafe-bench regenerates the paper's evaluation: every table
// and figure (experiments E1–E12, see DESIGN.md) printed as plain-text
// tables. The absolute times are this machine's; the shapes — who wins,
// by what factor, where effects saturate — are the reproduction.
//
// Usage:
//
//	cafe-bench                 # quick suite (seconds)
//	cafe-bench -full           # full-size suite (minutes)
//	cafe-bench -run E3,E4      # selected experiments
//	cafe-bench -seed 7 -queries 50
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"nucleodb/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cafe-bench: ")

	var (
		full    = flag.Bool("full", false, "full-size experiment suite (tens of minutes; the exhaustive baselines dominate)")
		run     = flag.String("run", "", "comma-separated experiment ids (e.g. E1,E3); default all")
		seed    = flag.Int64("seed", 1, "random seed for the whole suite")
		queries = flag.Int("queries", 0, "override query count")
		bases   = flag.Int("bases", 0, "override base collection size in bases")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.Suite() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	cfg := experiments.Quick(*seed)
	if *full {
		cfg = experiments.Full(*seed)
	}
	if *queries > 0 {
		cfg.NumQueries = *queries
	}
	if *bases > 0 {
		cfg.BaseBases = *bases
	}

	want := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			want[id] = true
		}
	}

	start := time.Now()
	ran := 0
	for _, r := range experiments.Suite() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		if ran > 0 {
			fmt.Println()
		}
		if err := r.Run(os.Stdout, cfg); err != nil {
			log.Fatalf("%s: %v", r.ID, err)
		}
		ran++
	}
	if ran == 0 {
		log.Fatalf("no experiments matched -run=%q", *run)
	}
	fmt.Fprintf(os.Stderr, "\ncafe-bench: %d experiments in %v\n", ran, time.Since(start).Round(time.Millisecond))
}

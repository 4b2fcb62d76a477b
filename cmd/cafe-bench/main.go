// Command cafe-bench regenerates the paper's evaluation: every table
// and figure (experiments E1–E8, see DESIGN.md) printed as plain-text
// tables. The absolute times are this machine's; the shapes — who wins,
// by what factor, where effects saturate — are the reproduction.
//
// Usage:
//
//	cafe-bench                 # quick suite (seconds)
//	cafe-bench -full           # full-size suite (minutes)
//	cafe-bench -run E3,E4      # selected experiments
//	cafe-bench -seed 7 -queries 50
//	cafe-bench -json           # per-stage work/latency breakdown as JSON
//	cafe-bench -coarse         # serial vs sharded coarse trajectory as JSON
//	cafe-bench -fine           # scalar vs bitvector fine kernel sweep as JSON
//
// The -coarse and -fine trajectories are parallelism benchmarks: they
// refuse to run at GOMAXPROCS=1 (override with -allow-single-core)
// so a single-core "parallel" trajectory is never committed again,
// and the -gate-* flags turn them into CI regression gates.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
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
		asJSON  = flag.Bool("json", false, "run the standard workload instrumented and print the per-stage breakdown as JSON instead of the tables")
		coarse  = flag.Bool("coarse", false, "benchmark serial vs sharded coarse search and print the trajectory as JSON (exits nonzero if sharded results ever differ from serial)")
		fine    = flag.Bool("fine", false, "benchmark the fine phase across kernels (scalar vs bitvector) and worker counts, print the sweep as JSON (exits nonzero if any cell's results differ from the serial scalar run)")

		allowSingleCore = flag.Bool("allow-single-core", false, "run -coarse/-fine even at GOMAXPROCS=1 (the committed trajectories must come from multi-core runs)")
		gateCoarse      = flag.Float64("gate-coarse-speedup", 0, "with -coarse: fail unless the best sharded coarse speedup at 2+ workers reaches this factor (skipped with a warning when the machine has fewer than 2 CPUs)")
		gateKernel      = flag.Float64("gate-kernel-speedup", 0, "with -fine: fail unless the bitvector kernel's serial speedup over scalar reaches this factor")
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

	if *coarse || *fine {
		// A "parallel trajectory" measured on one scheduler thread is a
		// lie (sharding shows as pure overhead); ROADMAP carried exactly
		// that artefact once. Refuse rather than mislead.
		if procs := runtime.GOMAXPROCS(0); procs == 1 && !*allowSingleCore {
			log.Fatal("refusing to benchmark parallelism at GOMAXPROCS=1 " +
				"(set GOMAXPROCS>=4 for committed trajectories, or pass -allow-single-core to measure anyway)")
		}
		if cpus, procs := runtime.NumCPU(), runtime.GOMAXPROCS(0); cpus < procs {
			log.Printf("WARNING: GOMAXPROCS=%d but only %d CPU(s) — parallel rows measure scheduling overhead, not speedup; treat this trajectory as indicative only", procs, cpus)
		}
	}

	if *coarse {
		rep, err := experiments.CoarseBench(cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		// The benchmark doubles as the equivalence smoke in CI: sharded
		// coarse search is contractually byte-identical to serial.
		if !rep.CandidatesIdentical {
			log.Fatal("sharded coarse results differ from serial — equivalence contract broken")
		}
		if *gateCoarse > 0 {
			if rep.CPUs < 2 {
				log.Printf("WARNING: skipping the coarse parallel-efficiency gate (%.2fx) — only %d CPU available, parallel speedup is physically impossible here", *gateCoarse, rep.CPUs)
				return
			}
			best := 0.0
			for _, run := range rep.Runs {
				if run.Workers >= 2 && run.CoarseSpeedup > best {
					best = run.CoarseSpeedup
				}
			}
			if best < *gateCoarse {
				log.Fatalf("coarse parallel efficiency regressed: best sharded speedup %.2fx at 2+ workers, gate requires %.2fx", best, *gateCoarse)
			}
			log.Printf("coarse gate passed: best sharded speedup %.2fx >= %.2fx", best, *gateCoarse)
		}
		return
	}

	if *fine {
		rep, err := experiments.FineBench(cfg, nil)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		if !rep.ResultsIdentical {
			log.Fatal("fine kernel/worker results differ from the serial scalar run — equivalence contract broken")
		}
		if *gateKernel > 0 {
			// The kernel speedup is algorithmic (SWAR lanes vs scalar
			// cells), so it is gated even on one core; measured serially
			// to keep scheduler noise out.
			got := rep.KernelSpeedupAt(1)
			if got < *gateKernel {
				log.Fatalf("bitvector kernel speedup regressed: %.2fx over scalar (serial), gate requires %.2fx", got, *gateKernel)
			}
			log.Printf("kernel gate passed: bitvector %.2fx over scalar >= %.2fx", got, *gateKernel)
		}
		return
	}

	if *asJSON {
		rep, err := experiments.Observe(cfg)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			log.Fatal(err)
		}
		return
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

// Command bench is the repository's benchmark: it generates a
// fixed-seed collection, takes the deployment path (Build →
// SaveSegmented → Open → the HTTP service on a loopback port, in
// process), drives it with one of five workloads, checks the answers
// and prints every metric by name with its unit. README.md explains the
// workloads and metrics; BENCHMARK.json at the repository root is the
// contract the driver runs it under, on three of the workloads.
//
//	bash bench/run.sh --workload coarse_scan --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh --out a.jsonl            # every workload, appended to a.jsonl
//	bash bench/run.sh --compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// record is one line of an -out file: a result and where it came from.
type record struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Machine  machine `json:"machine"`
	Result   result  `json:"result"`
}

// machine records what the numbers were measured on; they compare only
// with numbers from the same machine.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Clients    int    `json:"clients"`
}

func thisMachine(clients int) machine {
	m := machine{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), "unknown", clients}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+modified"
				}
			}
		}
	}
	return m
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: each in turn)")
		seed     = flag.Int64("seed", 1, "seed of the generated collection and queries")
		seconds  = flag.Float64("seconds", runSeconds, "length of the measured run")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		clients  = flag.Int("clients", min(2, runtime.NumCPU()), "connections of the load generator")
		out      = flag.String("out", "", "append each result, with the machine it ran on, to this file")
		workdir  = flag.String("workdir", "bench/out", "directory for the served database and the trace files")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json instead of running")
	)
	flag.Parse()
	switch {
	case *manifest:
		if err := writeManifest(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d", flag.NArg()))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	// More connections than processors would time the load generator
	// queueing for a CPU, not the service.
	if *clients < 1 || *clients > runtime.NumCPU() {
		fatal(fmt.Errorf("%d client connections on %d CPUs: need between 1 and the CPU count", *clients, runtime.NumCPU()))
	}
	todo := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		todo = []workload{w}
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fatal(err)
	}
	m := thisMachine(*clients)
	correct := true
	for _, w := range todo {
		res, err := run(w, *seed, *trace == 1, fullSize(*seconds, *clients), *workdir)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", w.name, err))
		}
		rec := record{w.name, *seed, *trace, *seconds, m, res}
		report(rec)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fatal(err)
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		correct = correct && res.Correct
	}
	if !correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// report prints the run for a reader, on standard error: standard
// output carries only the result line.
func report(rec record) {
	m := rec.Machine
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%d seconds=%g clients=%d nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Seconds, m.Clients, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Commit)
	fmt.Fprintf(os.Stderr, "  correct=%t attempted=%d failed=%d\n", rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed)
	names := make([]string, 0, len(rec.Result.Metrics))
	for name := range rec.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := rec.Result.Metrics[name]
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", name, v.Value, v.Unit)
	}
	for _, w := range rec.Result.windows {
		fmt.Fprintf(os.Stderr, "  window p50 %9.4f ms  mean %9.4f ms  %9.2f 1/s  cpu %9.4f ms\n", w.p50, w.mean, w.qps, w.cpu)
	}
	total := 0.0
	for _, self := range rec.Result.budget {
		total += self
	}
	for _, name := range budgetNames(rec.Result.budget) {
		self := rec.Result.budget[name]
		fmt.Fprintf(os.Stderr, "  self %-33s %14.1f us %5.1f%%\n", name, self, 100*self/total)
	}
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

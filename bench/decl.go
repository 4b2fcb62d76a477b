package main

import (
	"encoding/json"
	"io"
)

// metric declares one reported number. The tables below are the single
// source of the names, units, directions and regression bounds:
// BENCHMARK.json at the repository root is `bench -manifest` verbatim
// (the smoke test checks the two agree) and -compare reads the bounds
// from here.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long the driver lets one run measure: as long as
// its time limit for all runs of the gated workloads allows with a fifth
// to spare (README.md has the sum).
const runSeconds = 25

// endToEnd lists what a user of the served database sees. Every
// workload reports every one of them from its untraced run. A bound is
// the share of the parent commit's median by which the metric may get
// worse. README.md has the spreads (inter-quartile range over ten seeds
// ÷ median) the bounds were set from: three times the widest spread of
// any workload where that fits under the contract's cap of 0.25, the cap
// where this machine's run-to-run CPU speed drift does not let it.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_mean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "family_recall", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "stored_bytes_per_base", Unit: "B/base", Better: "lower", Bound: 0.02},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "alloc_kb_per_req", Unit: "KB", Better: "lower", Bound: 0.2},
	{Name: "cpu_ms_per_req", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer lists the numbers of single layers, named after the module
// they measure. Every workload reports every one of them from its
// traced run; one a workload does not exercise reads 0.
var perLayer = []metric{
	{Name: "loadgen.sent", Unit: "count", Better: "higher"},
	{Name: "loadgen.error_rate", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.latency_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "http.transport_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "server.requests", Unit: "count", Better: "higher"},
	{Name: "server.shed", Unit: "count", Better: "lower"},
	{Name: "server.timeouts", Unit: "count", Better: "lower"},
	{Name: "nucleodb.self_us", Unit: "us", Better: "lower"},
	{Name: "core.coarse_us", Unit: "us", Better: "lower"},
	{Name: "core.replay_coarse_us", Unit: "us", Better: "lower"},
	{Name: "index.lists_per_query", Unit: "count", Better: "lower"},
	{Name: "index.postings_per_query", Unit: "count", Better: "lower"},
	{Name: "index.postings_bytes_per_query", Unit: "B", Better: "lower"},
	{Name: "postings.decode_ns_per_posting", Unit: "ns", Better: "lower"},
	{Name: "kmer.extract_ns_per_base", Unit: "ns", Better: "lower"},
	{Name: "core.prescreen_us", Unit: "us", Better: "lower"},
	{Name: "core.fine_us", Unit: "us", Better: "lower"},
	{Name: "core.fine_cells_per_query", Unit: "count", Better: "lower"},
	{Name: "core.candidates_per_query", Unit: "count", Better: "lower"},
	{Name: "core.results_per_candidate", Unit: "ratio", Better: "higher"},
	{Name: "db.sequence_ns_per_base", Unit: "ns", Better: "lower"},
	{Name: "align.banded_score_cells_per_us", Unit: "1/us", Better: "higher"},
	{Name: "align.striped_cells_per_us", Unit: "1/us", Better: "higher"},
	{Name: "core.traceback_us", Unit: "us", Better: "lower"},
	{Name: "core.traceback_cells_per_query", Unit: "count", Better: "lower"},
	{Name: "align.banded_traceback_cells_per_us", Unit: "1/us", Better: "higher"},
	{Name: "align.local_cells_per_us", Unit: "1/us", Better: "higher"},
	{Name: "core.self_us", Unit: "us", Better: "lower"},
	{Name: "dna.encode_ns_per_base", Unit: "ns", Better: "lower"},
	{Name: "index.build_s", Unit: "s", Better: "lower"},
	{Name: "segment.save_s", Unit: "s", Better: "lower"},
	{Name: "segment.open_s", Unit: "s", Better: "lower"},
	{Name: "index.bytes_per_base", Unit: "B/base", Better: "lower"},
	{Name: "db.store_bytes_per_base", Unit: "B/base", Better: "lower"},
	{Name: "segment.append_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "segment.append_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "segment.append_us_per_kbase", Unit: "us", Better: "lower"},
	{Name: "segment.segments_final", Unit: "count", Better: "lower"},
	{Name: "segment.deleted_final", Unit: "count", Better: "lower"},
	{Name: "segment.compactions", Unit: "count", Better: "higher"},
	{Name: "segment.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	var wls []wl
	for _, d := range workloads {
		if !d.byHand {
			wls = append(wls, wl{d.name, d.why})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{[]string{"bash", "bench/run.sh"}, []string{"bench"}, runSeconds, wls, endToEnd, perLayer})
}

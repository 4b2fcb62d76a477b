package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// smokeSize runs every phase of a workload on a collection small enough
// for the tier-1 test run.
func smokeSize() sizing {
	return sizing{
		seqs: 300, setups: 1, clients: min(2, runtime.NumCPU()),
		duration: 2 * time.Second, windows: 2, requests: 40, warmup: 10, pool: 32,
		traced: 6, replay: 3, samples: 5,
		batch: 10, interval: 40 * time.Millisecond,
	}
}

func TestDeclarations(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit string) {
		t.Helper()
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is malformed", name, unit)
		}
	}
	for _, w := range workloads {
		check(w.name, "")
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.name)
		}
	}
	for _, m := range endToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range perLayer {
		check(m.Name, m.Unit)
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is not declared")
	}

	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Error("BENCHMARK.json differs from `bench -manifest`; regenerate it")
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			res, err := run(w, 1, traced, smokeSize(), dir)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%t: correct=%t failed=%d attempted=%d", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			decl := endToEnd
			if traced {
				decl = perLayer
			}
			if len(res.Metrics) != len(decl) {
				t.Errorf("%s traced=%t: %d metrics reported, %d declared", w.name, traced, len(res.Metrics), len(decl))
			}
			for _, m := range decl {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not reported", w.name, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s in %q, declared %q", w.name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value < 0 && m.Name != "loadgen.trace_overhead_pct":
					t.Errorf("%s: %s = %v", w.name, m.Name, v.Value)
				case !traced && v.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", w.name, m.Name)
				}
			}
			if traced {
				checkTrace(t, filepath.Join(dir, w.name+".trace.json"), w)
			}
		}
	}
}

// checkTrace asserts the trace file parses and every span lies inside
// its parent and belongs to its parent's request.
func checkTrace(t *testing.T, path string, w workload) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if tf.Workload != w.name || len(tf.Spans) == 0 {
		t.Fatalf("%s: workload %q with %d spans", path, tf.Workload, len(tf.Spans))
	}
	byID := map[int]span{}
	names := map[string]bool{}
	for _, sp := range tf.Spans {
		byID[sp.ID] = sp
		names[sp.Name] = true
	}
	for _, sp := range tf.Spans {
		if sp.EndUs < sp.StartUs {
			t.Errorf("%s: span %d (%s) ends before it starts", w.name, sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		p, ok := byID[sp.Parent]
		const slack = 1e-6 // float rounding of the reconstructed offsets
		if !ok || p.Request != sp.Request || sp.StartUs < p.StartUs-slack || sp.EndUs > p.EndUs+slack {
			t.Errorf("%s: span %d (%s) [%v, %v] not inside parent %+v", w.name, sp.ID, sp.Name, sp.StartUs, sp.EndUs, p)
		}
	}
	want := []string{"request", "server.handle"}
	if w.stats {
		want = append(want, "core.search", "core.coarse", "core.fine", "core.prescreen", "core.traceback")
	}
	for _, name := range want {
		if !names[name] {
			t.Errorf("%s: no %s span", w.name, name)
		}
	}
}

func TestQuietTakesTheBetterFifth(t *testing.T) {
	var wins []window
	for i := 1; i <= 9; i++ { // five quiet windows, four beside a busy neighbour
		slow := 1.0
		if i > 5 {
			slow = 1.5
		}
		wins = append(wins, window{p50: 10 * slow, qps: 200 / slow})
	}
	if got := quiet(wins, func(w window) float64 { return w.p50 }, false); got != 10 {
		t.Errorf("lower-is-better fifth = %v, want 10", got)
	}
	if got := quiet(wins, func(w window) float64 { return w.qps }, true); got != 200 {
		t.Errorf("higher-is-better fifth = %v, want 200", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50s ...float64) string {
		path := filepath.Join(dir, name)
		for i, p50 := range p50s {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				res.Metrics[m.Name] = value{1, m.Unit}
			}
			res.Metrics["latency_p50_ms"] = value{p50, "ms"}
			if err := appendRecord(path, record{Workload: "coarse_scan", Seed: int64(i), Result: res}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a", 10, 10.1, 9.9, 10)
	for _, tc := range []struct {
		name      string
		p50s      []float64
		regressed bool
		mark      string
	}{
		{"same", []float64{10, 10.1, 9.9, 10.05}, false, ""},
		{"slower", []float64{13, 13.1, 12.9, 13}, true, "regressed"},
		{"noisy", []float64{6, 14, 9, 11}, false, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, base, write(tc.name, tc.p50s...))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed || tc.mark != "" && !strings.Contains(out.String(), tc.mark) {
			t.Errorf("%s: regressed=%t, output:\n%s", tc.name, regressed, out.String())
		}
	}
}

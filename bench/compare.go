package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRuns groups the end-to-end values of an -out file by workload and
// metric.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Result.Correct {
			return nil, fmt.Errorf("%s: %s seed %d has %d failed of %d", path, rec.Workload, rec.Seed, rec.Result.Failed, rec.Result.Attempted)
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Result.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them; the driver
// judges spread the same way.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	at := func(k int) float64 {
		if len(xs) == 1 {
			return xs[0]
		}
		pos := float64(k*(len(xs)+1))/4 - 1
		lo := min(max(int(pos), 0), len(xs)-2)
		return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
	}
	return at(1), at(2), at(3)
}

// compareFiles prints, for every workload and end-to-end metric, the
// medians of the two sets of runs, how much worse the second is as a
// share of the first, the wider of the two spreads (inter-quartile
// range ÷ median) and the bound. A metric worse by more than its bound
// is marked regressed; one whose spread exceeds its bound cannot be
// told from unchanged and is marked unresolved. It reports whether any
// metric regressed.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-16s %-22s %12s %12s %8s %8s %6s\n", "workload", "metric", "a", "b", "worse", "spread", "bound")
	for _, wl := range workloads {
		for _, m := range endToEnd {
			va, vb := a[wl.name][m.Name], b[wl.name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := ratio(b2-a2, a2)
			if m.Better == "higher" {
				worse = -worse
			}
			spread := max(ratio(a3-a1, a2), ratio(b3-b1, b2))
			mark := ""
			switch {
			case worse > m.Bound:
				mark = "regressed"
				regressed = true
			case spread > m.Bound:
				mark = "unresolved"
			}
			fmt.Fprintf(w, "%-16s %-22s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%% %s\n",
				wl.name, m.Name, a2, b2, 100*worse, 100*spread, 100*m.Bound, mark)
		}
	}
	return regressed, nil
}

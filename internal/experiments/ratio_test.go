package experiments

import (
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestRatioNS(t *testing.T) {
	cases := []struct {
		name     string
		num, den time.Duration
		want     float64
	}{
		{"normal", 10 * time.Millisecond, 2 * time.Millisecond, 5},
		{"zero denominator", 5 * time.Nanosecond, 0, 5},
		{"negative denominator", 5 * time.Nanosecond, -3, 5},
		{"both zero", 0, 0, 0},
		{"negative numerator", -7, time.Millisecond, 0},
	}
	for _, c := range cases {
		got := ratioNS(c.num, c.den)
		if got != c.want {
			t.Errorf("%s: ratioNS(%v, %v) = %v, want %v", c.name, c.num, c.den, got, c.want)
		}
		if math.IsInf(got, 0) || math.IsNaN(got) {
			t.Errorf("%s: ratioNS(%v, %v) = %v is not finite", c.name, c.num, c.den, got)
		}
	}
}

// TestZeroDurationReportsMarshal reproduces the original failure mode:
// a 0ns baseline made a speedup +Inf (or NaN for 0ns/0ns), which
// encoding/json refuses to marshal — so `cafe-bench -coarse > X.json`
// died with "unsupported value: +Inf" — and which silently passed
// `speedup < gate` CI checks because every comparison with NaN is
// false. Speedup fields built from zero-duration measurements must
// stay finite all the way through the JSON path.
func TestZeroDurationReportsMarshal(t *testing.T) {
	checkFinite := func(name string, v float64) {
		t.Helper()
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("%s = %v is not finite", name, v)
		}
	}

	// Each report type with its speedup fields fed the degenerate
	// inputs: 0ns baseline, 0ns measurement, and 0ns/0ns.
	coarse := &CoarseBenchReport{Runs: []CoarseBenchRun{
		{Workers: 2, CoarseSpeedup: ratioNS(0, 5)},
		{Workers: 4, CoarseSpeedup: ratioNS(5, 0)},
	}}
	fine := &FineBenchReport{Runs: []FineBenchRun{
		{Kernel: "bitvector", KernelSpeedup: ratioNS(0, 5), ParallelSpeedup: ratioNS(5, 0)},
	}}

	for _, r := range coarse.Runs {
		checkFinite("CoarseSpeedup", r.CoarseSpeedup)
	}
	for _, r := range fine.Runs {
		checkFinite("KernelSpeedup", r.KernelSpeedup)
		checkFinite("ParallelSpeedup", r.ParallelSpeedup)
	}

	for name, v := range map[string]any{
		"coarse": coarse, "fine": fine,
	} {
		if _, err := json.Marshal(v); err != nil {
			t.Errorf("json.Marshal(%s report with 0ns baselines): %v", name, err)
		}
	}

	// The table experiments share ratioNS for their row speedups
	// (E3/E6/E10); the same degenerate inputs must stay finite there.
	for _, v := range []float64{
		ratioNS(0, 0),                // both sides instantaneous
		ratioNS(0, time.Millisecond), // baseline measured 0
		ratioNS(time.Millisecond, 0), // subject measured 0
	} {
		checkFinite("row speedup", v)
	}
}

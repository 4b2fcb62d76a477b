package experiments

import (
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

// TestZeroDurationReportsMarshal: the table experiments take their row
// speedups from ratioNS (E3/E6/E10). A 0ns measurement on either side
// must stay finite — +Inf prints as such and NaN passes every
// `speedup < floor` check.
func TestZeroDurationReportsMarshal(t *testing.T) {
	for _, v := range []float64{
		ratioNS(0, 0),                // both sides instantaneous
		ratioNS(0, time.Millisecond), // baseline measured 0
		ratioNS(time.Millisecond, 0), // subject measured 0
	} {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("row speedup = %v is not finite", v)
		}
	}
}

package experiments

import "time"

// ratioNS returns num/den as a dimensionless ratio, clamping a zero or
// negative denominator to 1ns. The table experiments (E3/E6/E10) print
// it as a row's speedup and their shape tests hold it to a floor, so a
// 0ns measurement (entirely possible on a coarse clock over a tiny
// quick-mode workload) must never reach a bare float64 division: +Inf
// would print as the speedup, and NaN passes every `speedup < floor`
// check because each comparison with it is false.
func ratioNS(num, den time.Duration) float64 {
	if den <= 0 {
		den = time.Nanosecond
	}
	if num < 0 {
		num = 0
	}
	return float64(num) / float64(den)
}

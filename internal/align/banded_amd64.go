package align

// avx2Pass is the banded passes' vector route: scorePass and tracePass
// eight int32 cells to a YMM register (banded_amd64.s).
var avx2Pass = passRoute{name: "avx2", score: scorePassAVX2, trace: tracePassAVX2}

// vectorPass returns the banded passes' AVX2 route and whether this CPU
// can take it.
func vectorPass() (passRoute, bool) { return avx2Pass, hasAVX2() }

// scorePassAVX2 is scorePass in YMM registers.
//
//go:noescape
func scorePassAVX2(h, e []int32, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (score int32, aEnd, bEnd int)

// tracePassAVX2 is tracePass in YMM registers.
//
//go:noescape
func tracePassAVX2(h, e []int32, dir, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (score int32, aEnd, bEnd int)

package align

// avx2Rows is the banded rows' vector route: scoreRow and traceRow eight
// int32 cells to a YMM register (banded_amd64.s).
var avx2Rows = rowRoute{name: "avx2", score: scoreRowAVX2, trace: traceRowAVX2}

// vectorRows returns the banded rows' AVX2 route and whether this CPU can
// take it.
func vectorRows() (rowRoute, bool) { return avx2Rows, hasAVX2() }

// scoreRowAVX2 is scoreRow in YMM registers.
//
//go:noescape
func scoreRowAVX2(hOut, hUp, eOut, eUp []int32, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32)

// traceRowAVX2 is traceRow in YMM registers.
//
//go:noescape
func traceRowAVX2(hOut, hUp, eOut, eUp []int32, dOut, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32)

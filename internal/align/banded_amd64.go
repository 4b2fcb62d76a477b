package align

// avx2Pass is the banded passes' vector route (banded_amd64.s):
// scorePass and tracePass eight int32 cells to a YMM register, and
// sixteen int16 cells to one for the passes fitsNarrow admits.
var avx2Pass = passRoute{
	name:    "avx2",
	score:   scorePassAVX2,
	trace:   tracePassAVX2,
	score16: scorePassAVX2x16,
	trace16: tracePassAVX2x16,
}

// vectorPass returns the banded passes' AVX2 route and whether this CPU
// can take it.
func vectorPass() (passRoute, bool) { return avx2Pass, hasAVX2() }

// scorePassAVX2 is scorePass in YMM registers, eight int32 cells to one.
//
//go:noescape
func scorePassAVX2(h, e []int32, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)

// tracePassAVX2 is tracePass in YMM registers, eight int32 cells to one.
//
//go:noescape
func tracePassAVX2(h, e []int32, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)

// scorePassAVX2x16 is scorePass in YMM registers, sixteen int16 cells to
// one, over rows with narrowPad slots past each.
//
//go:noescape
func scorePassAVX2x16(h, e []int16, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)

// tracePassAVX2x16 is tracePass in YMM registers, sixteen int16 cells to
// one, over rows with narrowPad slots past each.
//
//go:noescape
func tracePassAVX2x16(h, e []int16, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (score int32, aEnd, bEnd int)

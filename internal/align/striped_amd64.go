package align

// avx2 is the striped kernel's vector route: 32 byte lanes or 16 word
// lanes to a YMM register, four uint64 words.
var avx2 = route{name: "avx2", vec: 4, narrow: walkAVX2x8, wide: walkAVX2x16}

// walkAVX2x8 is walkColumns[uint8] in YMM registers (striped_amd64.s).
//
//go:noescape
//cafe:hotpath
func walkAVX2x8(he, prof []uint64, b []byte, openExt, ext, best uint64) (i, m int)

// walkAVX2x16 is walkColumns[uint16] in YMM registers.
//
//go:noescape
//cafe:hotpath
func walkAVX2x16(he, prof []uint64, b []byte, openExt, ext, best uint64) (i, m int)

package compress

import "fmt"

// Scheme identifies an integer-coding scheme. The compression experiment
// (E2) encodes the same gap streams under every scheme and compares size
// and decode time; the index proper uses Golomb for identifier gaps,
// gamma for counts and Rice for offset gaps.
type Scheme uint8

const (
	// SchemeNone stores each integer as a fixed 8-byte little-endian
	// word: the uncompressed baseline.
	SchemeNone Scheme = iota
	// SchemeVByte is byte-aligned variable-byte coding.
	SchemeVByte
	// SchemeGamma is Elias gamma coding.
	SchemeGamma
	// SchemeDelta is Elias delta coding.
	SchemeDelta
	// SchemeGolomb is Golomb coding with a per-stream parameter chosen
	// from the stream's mean gap.
	SchemeGolomb
	// SchemeRice is Rice coding (power-of-two Golomb).
	SchemeRice
)

// Schemes lists every scheme, in presentation order for the experiment
// tables.
var Schemes = []Scheme{SchemeNone, SchemeVByte, SchemeGamma, SchemeDelta, SchemeGolomb, SchemeRice}

// String returns the scheme's table label.
func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "none"
	case SchemeVByte:
		return "vbyte"
	case SchemeGamma:
		return "gamma"
	case SchemeDelta:
		return "delta"
	case SchemeGolomb:
		return "golomb"
	case SchemeRice:
		return "rice"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

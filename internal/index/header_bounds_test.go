package index

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// craftHeader builds an index image prefix: the magic followed by the
// given uvarint fields, in header order (K, offsets flag, stop
// fraction, skip interval, mask length, [sequence count], ...). The
// image is deliberately truncated after the last field — every test
// case below must fail on a bounds check before reaching the missing
// sections.
func craftHeader(fields ...uint64) []byte {
	var buf bytes.Buffer
	buf.WriteString(indexMagic)
	var tmp [binary.MaxVarintLen64]byte
	for _, v := range fields {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	return buf.Bytes()
}

// TestLoadHeaderBounds is the regression suite for the uvarint→int
// truncation bug: header fields were converted with int(...) before
// any width check, so on a 32-bit platform an adversarial K of
// 1<<32+9 decoded as a plausible 9. Every field must now be rejected
// at full uint64 width, with an error that names the field rather
// than a downstream read failure.
func TestLoadHeaderBounds(t *testing.T) {
	cases := []struct {
		name   string
		fields []uint64
		want   string
	}{
		// 1<<32+9 truncates to int32 9, a legal K; 1<<32 truncates to 0.
		{"k-wraps-32bit", []uint64{1<<32 + 9, 1, 0, 0, 0}, "interval length"},
		{"k-zero-wrap", []uint64{1 << 32, 1, 0, 0, 0}, "interval length"},
		{"k-huge", []uint64{1 << 60, 1, 0, 0, 0}, "interval length"},
		{"offsets-flag-wraps", []uint64{9, 1<<32 + 1, 0, 0, 0}, "offsets flag"},
		{"stopfrac-above-unit", []uint64{9, 1, 2_000_000, 0, 0}, "stop fraction"},
		{"stopfrac-wraps", []uint64{9, 1, 1 << 33, 0, 0}, "stop fraction"},
		{"skip-wraps-32bit", []uint64{9, 1, 0, 1<<32 + 7, 0}, "skip interval"},
		{"skip-huge", []uint64{9, 1, 0, 1 << 50, 0}, "skip interval"},
		{"mask-huge", []uint64{9, 1, 0, 0, 1 << 40}, "mask length"},
		// numSeqs 1<<33 wraps int32 sequence IDs; previously only
		// > 1<<40 was rejected.
		{"numseqs-wraps-int32", []uint64{9, 1, 0, 0, 0, 1 << 33}, "sequence count"},
		{"numseqs-huge", []uint64{9, 1, 0, 0, 0, 1 << 39}, "sequence count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(craftHeader(tc.fields...)))
			if err == nil {
				t.Fatal("adversarial header accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadHeaderBoundsAcceptsValid pins that the new full-width checks
// don't reject the legal extremes: the largest K and a full stop
// fraction, over the zero skip interval Save writes, must get past the
// header (failing later, on the truncated body, with a read error).
func TestLoadHeaderBoundsAcceptsValid(t *testing.T) {
	for _, fields := range [][]uint64{
		{MaxK, 1, 1_000_000, 0, 0},
		{1, 1, 0, 0, 0},
	} {
		_, err := Load(bytes.NewReader(craftHeader(fields...)))
		if err == nil {
			t.Fatal("truncated image loaded successfully")
		}
		for _, field := range []string{"interval length", "offsets flag", "stop fraction", "skip interval"} {
			if strings.Contains(err.Error(), field) {
				t.Fatalf("legal header rejected by bounds check: %v", err)
			}
		}
	}
}

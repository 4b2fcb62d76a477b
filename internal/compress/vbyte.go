package compress

import "fmt"

// Variable-byte coding: seven payload bits per byte, high bit set on the
// final byte of each integer. Byte-aligned, so faster to decode than the
// bit codes but less compact; it is the comparator scheme in the
// compression experiments.

// PutVByte appends the variable-byte code of v to dst and returns the
// extended slice. Unlike the bit codes, v = 0 is representable.
func PutVByte(dst []byte, v uint64) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v&0x7F))
		v >>= 7
	}
	return append(dst, byte(v)|0x80)
}

// GetVByte decodes a variable-byte integer from buf, returning the value
// and the number of bytes consumed.
func GetVByte(buf []byte) (v uint64, n int, err error) {
	var shift uint
	for i, b := range buf {
		if i == 10 {
			return 0, 0, fmt.Errorf("%w: variable-byte code too long", ErrCorrupt) // cold corruption path
		}
		if b&0x80 != 0 {
			// The tenth byte holds bits 63.. of the value: anything past
			// the single remaining bit silently truncated before.
			if i == 9 && b&0x7F > 1 {
				return 0, 0, fmt.Errorf("%w: variable-byte code overflows 64 bits", ErrCorrupt) // cold corruption path
			}
			return v | uint64(b&0x7F)<<shift, i + 1, nil
		}
		v |= uint64(b) << shift
		shift += 7
	}
	return 0, 0, fmt.Errorf("%w: unterminated variable-byte code", ErrCorrupt) // cold corruption path
}

// VByteLen returns the encoded length in bytes of v.
func VByteLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

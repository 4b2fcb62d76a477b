package compress

import (
	"fmt"
	"math"
	"math/bits"
)

// PutGamma appends the Elias gamma code of v ≥ 1: the unary code of
// 1+⌊log₂ v⌋ followed by the ⌊log₂ v⌋ low-order bits of v.
func PutGamma(w *BitWriter, v uint64) {
	if v == 0 {
		panic("compress: gamma code of 0")
	}
	n := uint(bits.Len64(v)) // 1 + floor(log2 v)
	w.WriteUnary(uint64(n))
	w.WriteBits(v, n-1) // v with its leading 1 implied
}

// GetGamma reads an Elias gamma code.
func GetGamma(r *BitReader) (uint64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 64 {
		return 0, fmt.Errorf("%w: gamma length %d", ErrCorrupt, n) // cold corruption path; the error message is the product
	}
	low, err := r.ReadBits(uint(n - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(n-1) | low, nil
}

// GammaLen returns the length in bits of the gamma code of v ≥ 1.
func GammaLen(v uint64) int {
	n := bits.Len64(v)
	return 2*n - 1
}

// PutDelta appends the Elias delta code of v ≥ 1: the gamma code of
// 1+⌊log₂ v⌋ followed by the low-order bits of v.
func PutDelta(w *BitWriter, v uint64) {
	if v == 0 {
		panic("compress: delta code of 0")
	}
	n := uint(bits.Len64(v))
	PutGamma(w, uint64(n))
	w.WriteBits(v, n-1)
}

// GetDelta reads an Elias delta code.
func GetDelta(r *BitReader) (uint64, error) {
	n, err := GetGamma(r)
	if err != nil {
		return 0, err
	}
	if n == 0 || n > 64 {
		return 0, fmt.Errorf("%w: delta length %d", ErrCorrupt, n) // cold corruption path; the error message is the product
	}
	low, err := r.ReadBits(uint(n - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(n-1) | low, nil
}

// GolombParameter returns the textbook parameter b ≈ 0.69·mean for
// Golomb-coding gaps whose mean is total/count: with n occurrences
// spread over a universe of size u, b = ⌈0.69·u/n⌉. A parameter of at
// least 1 is always returned.
func GolombParameter(universe, occurrences uint64) uint64 {
	if occurrences == 0 {
		return 1
	}
	b := uint64(math.Ceil(0.69 * float64(universe) / float64(occurrences)))
	if b < 1 {
		b = 1
	}
	return b
}

// PutGolomb appends the Golomb code of v ≥ 1 with parameter b ≥ 1:
// quotient q = (v-1)/b in unary, then remainder in truncated binary.
func PutGolomb(w *BitWriter, v, b uint64) {
	if v == 0 {
		panic("compress: golomb code of 0")
	}
	if b == 0 {
		panic("compress: golomb parameter 0")
	}
	q := (v - 1) / b
	rem := (v - 1) % b
	w.WriteUnary(q + 1)
	putTruncated(w, rem, b)
}

// GetGolomb reads a Golomb code with parameter b.
func GetGolomb(r *BitReader, b uint64) (uint64, error) {
	if b == 0 {
		panic("compress: golomb parameter 0")
	}
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	rem, err := getTruncated(r, b)
	if err != nil {
		return 0, err
	}
	return (q-1)*b + rem + 1, nil
}

// GolombLen returns the length in bits of the Golomb code of v with
// parameter b.
func GolombLen(v, b uint64) int {
	q := (v - 1) / b
	rem := (v - 1) % b
	return int(q) + 1 + truncatedLen(rem, b)
}

// putTruncated writes rem ∈ [0, b) in truncated binary: with
// k = ⌈log₂ b⌉ and t = 2^k − b, values below t use k−1 bits and the
// rest use k bits offset by t.
func putTruncated(w *BitWriter, rem, b uint64) {
	if b == 1 {
		return
	}
	k := uint(bits.Len64(b - 1)) // ceil(log2 b)
	t := uint64(1)<<k - b
	if rem < t {
		w.WriteBits(rem, k-1)
	} else {
		w.WriteBits(rem+t, k)
	}
}

func getTruncated(r *BitReader, b uint64) (uint64, error) {
	if b == 1 {
		return 0, nil
	}
	k := uint(bits.Len64(b - 1))
	t := uint64(1)<<k - b
	v, err := r.ReadBits(k - 1)
	if err != nil {
		return 0, err
	}
	if v < t {
		return v, nil
	}
	bit, err := r.ReadBits(1)
	if err != nil {
		return 0, err
	}
	return v<<1 | bit - t, nil
}

func truncatedLen(rem, b uint64) int {
	if b == 1 {
		return 0
	}
	k := int(bits.Len64(b - 1))
	t := uint64(1)<<uint(k) - b
	if rem < t {
		return k - 1
	}
	return k
}

// Rice coding is Golomb coding with a power-of-two parameter 2^k, which
// replaces the divide with shifts. The index Golomb-codes identifier
// gaps, where the parameter is per list, and Rice-codes offset gaps,
// where it is per posting and a divide would sit on the decoder's
// critical path.

// PutRice appends the Rice code of v ≥ 1 with parameter k.
func PutRice(w *BitWriter, v uint64, k uint) {
	if v == 0 {
		panic("compress: rice code of 0")
	}
	q := (v - 1) >> k
	w.WriteUnary(q + 1)
	w.WriteBits(v-1, k)
}

// GetRice reads a Rice code with parameter k.
func GetRice(r *BitReader, k uint) (uint64, error) {
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	low, err := r.ReadBits(k)
	if err != nil {
		return 0, err
	}
	return (q-1)<<k | low + 1, nil
}

// RiceParameter returns k = ⌊log₂ b⌋ for the Golomb parameter
// b = max(1, ⌈0.69·universe/occurrences⌉), the largest power of two not
// above it. It is integer arithmetic throughout — ⌈69·u / 100·n⌉ — so an
// encoder and a decoder on different architectures derive the same k;
// universe and occurrences must stay below 2^56.
func RiceParameter(universe, occurrences uint64) uint {
	if occurrences == 0 {
		return 0
	}
	b := (69*universe + 100*occurrences - 1) / (100 * occurrences)
	return uint(max(bits.Len64(b), 1) - 1)
}

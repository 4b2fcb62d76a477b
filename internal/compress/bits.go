// Package compress implements the bit-level integer coding schemes used
// throughout the index: unary, Elias gamma, Elias delta, Golomb/Rice and
// variable-byte codes, over a bit-granular writer and reader.
//
// These are the codes Williams & Zobel use for inverted-list
// compression: Golomb codes for document-identifier gaps (with the
// parameter derived from list density), Elias gamma codes for small
// counts, and variable-byte codes as the byte-aligned comparator.
//
// All codes operate on strictly positive integers; gaps and counts are
// ≥ 1 by construction. Callers encoding values that may be zero add one
// before encoding and subtract one after decoding.
package compress

import (
	"errors"
	"fmt"
	"math/bits"
)

// ErrCorrupt is returned when a decoder runs off the end of its input or
// reads an impossible code. Wrapped errors carry detail.
var ErrCorrupt = errors.New("compress: corrupt bit stream")

// BitWriter accumulates bits most-significant-first into a byte buffer.
// The zero value is ready to use.
type BitWriter struct {
	buf  []byte
	cur  uint64 // bits accumulated, left-aligned within nbits
	ncur uint   // number of valid bits in cur (0..63)
}

// NewBitWriter returns a writer with capacity hint n bytes.
func NewBitWriter(n int) *BitWriter {
	return &BitWriter{buf: make([]byte, 0, n)}
}

// WriteBit appends a single bit.
func (w *BitWriter) WriteBit(bit uint) {
	w.WriteBits(uint64(bit&1), 1)
}

// WriteBits appends the low n bits of v, most significant first.
// n must be in [0, 64].
func (w *BitWriter) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("compress: WriteBits of %d bits", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	// Flush whole bytes out of cur while adding the new bits.
	for n > 0 {
		space := 64 - w.ncur
		take := n
		if take > space {
			take = space
		}
		w.cur = (w.cur << take) | (v >> (n - take) & mask(take))
		w.ncur += take
		n -= take
		if w.ncur == 64 {
			w.flushWord()
		}
	}
}

//cafe:hotpath
func mask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

func (w *BitWriter) flushWord() {
	for i := uint(0); i < 8; i++ {
		w.buf = append(w.buf, byte(w.cur>>(56-8*i)))
	}
	w.cur, w.ncur = 0, 0
}

// WriteUnary appends v-1 one-bits followed by a zero bit: the unary code
// of v ≥ 1.
func (w *BitWriter) WriteUnary(v uint64) {
	if v == 0 {
		panic("compress: unary code of 0")
	}
	for v-1 >= 64 {
		w.WriteBits(^uint64(0), 64)
		v -= 64
	}
	// v-1 one bits then a zero bit; v-1 < 64 so this fits in two calls.
	if v > 1 {
		w.WriteBits(mask(uint(v-1)), uint(v-1))
	}
	w.WriteBit(0)
}

// Len returns the number of complete bytes the writer would emit now.
func (w *BitWriter) Len() int {
	return len(w.buf) + int((w.ncur+7)/8)
}

// BitLen returns the exact number of bits written so far.
func (w *BitWriter) BitLen() int {
	return len(w.buf)*8 + int(w.ncur)
}

// Bytes zero-pads the final partial byte and returns the encoded buffer.
// The writer remains usable; further writes continue from the unpadded
// bit position, so call Bytes only when encoding is complete.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, 0, w.Len())
	out = append(out, w.buf...)
	if w.ncur > 0 {
		rem := w.cur << (64 - w.ncur) // left-align pending bits
		for n := w.ncur; n > 0; {
			out = append(out, byte(rem>>56))
			rem <<= 8
			if n >= 8 {
				n -= 8
			} else {
				n = 0
			}
		}
	}
	return out
}

// Reset discards all written bits, retaining the allocated buffer.
func (w *BitWriter) Reset() {
	w.buf = w.buf[:0]
	w.cur, w.ncur = 0, 0
}

// BitReader consumes bits most-significant-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int // byte position of next refill
	cur  uint64
	ncur uint // valid bits remaining in cur, left-aligned
}

// NewBitReader returns a reader over buf. The reader does not copy buf.
func NewBitReader(buf []byte) *BitReader {
	return &BitReader{buf: buf}
}

// Reset repositions the reader over a new buffer, reusing the struct.
//
//cafe:hotpath
func (r *BitReader) Reset(buf []byte) {
	r.buf, r.pos, r.cur, r.ncur = buf, 0, 0, 0
}

//cafe:hotpath
func (r *BitReader) refill() {
	for r.ncur <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.ncur)
		r.ncur += 8
		r.pos++
	}
}

// ReadBit reads one bit.
//
//cafe:hotpath
func (r *BitReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

// ReadBits reads n bits (0 ≤ n ≤ 64), most significant first.
//
//cafe:hotpath
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 64 {
		panic(fmt.Sprintf("compress: ReadBits of %d bits", n))
	}
	var v uint64
	need := n
	for need > 0 {
		if r.ncur == 0 {
			r.refill()
			if r.ncur == 0 {
				return 0, fmt.Errorf("%w: need %d more bits", ErrCorrupt, need) //cafe:allow cold corruption path; the error message is the product
			}
		}
		take := need
		if take > r.ncur {
			take = r.ncur
		}
		v = (v << take) | (r.cur >> (64 - take))
		r.cur <<= take
		r.ncur -= take
		need -= take
	}
	return v, nil
}

// ReadUnary reads a unary code and returns its value v ≥ 1.
//
//cafe:hotpath
func (r *BitReader) ReadUnary() (uint64, error) {
	v := uint64(1)
	for {
		if r.ncur == 0 {
			r.refill()
			if r.ncur == 0 {
				return 0, fmt.Errorf("%w: unterminated unary code", ErrCorrupt) //cafe:allow cold corruption path; the error message is the product
			}
		}
		// Count leading ones in the available window.
		window := r.cur | mask(64-r.ncur) // treat exhausted bits as ones so they don't terminate
		ones := uint(bits.LeadingZeros64(^window))
		if ones >= r.ncur {
			v += uint64(r.ncur)
			r.cur, r.ncur = 0, 0
			continue
		}
		v += uint64(ones)
		// Consume the ones and the terminating zero.
		r.cur <<= ones + 1
		r.ncur -= ones + 1
		return v, nil
	}
}

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
	"encoding/binary"
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
//
// It keeps a 64-bit window, left-aligned, whose top ncur bits are
// accounted for: pos counts the bytes those bits came from, so
// 8·pos − ncur bits have been consumed. Below the accounted bits the
// window may already hold the stream's next bits (the refill ORs in a
// whole word and counts only whole bytes of it), so consumers trust
// ncur bits and no more. Past the end of the buffer the reader supplies
// zero bits instead of failing mid-code — every unary run therefore
// terminates — and Overrun reports whether a consumed bit lay beyond
// the buffer. ReadBits, ReadUnary and the Get* codes check it per call;
// the postings iterator decodes an entry's codes from the window
// directly (Window/SetWindow) and checks once per entry.
type BitReader struct {
	buf  []byte
	pos  int // bytes accounted into the window; runs past len(buf) over the zero fill
	cur  uint64
	ncur uint // accounted bits in cur, at most 63
}

// NewBitReader returns a reader over buf. The reader does not copy buf.
func NewBitReader(buf []byte) *BitReader {
	return &BitReader{buf: buf}
}

// Reset repositions the reader over a new buffer, reusing the struct.
func (r *BitReader) Reset(buf []byte) {
	r.buf, r.pos, r.cur, r.ncur = buf, 0, 0, 0
}

// Refill tops the window up to at least 56 accounted bits: one
// big-endian word while eight bytes remain, byte by byte (then zeros)
// over the tail.
func (r *BitReader) Refill() {
	if r.pos+8 <= len(r.buf) {
		r.cur |= binary.BigEndian.Uint64(r.buf[r.pos:]) >> r.ncur
		n := (63 - r.ncur) >> 3
		r.pos += int(n)
		r.ncur += n << 3
		return
	}
	for r.ncur < 56 {
		if r.pos < len(r.buf) {
			r.cur |= uint64(r.buf[r.pos]) << (56 - r.ncur)
		}
		r.pos++
		r.ncur += 8
	}
}

// Window returns the reader's buffer, position and bit window for a
// caller that decodes from locals; SetWindow hands the advanced window
// back. In between the caller keeps the struct's invariants: consume
// from the top of cur, trust ncur bits at most, refill exactly as Refill
// does.
func (r *BitReader) Window() (buf []byte, pos int, cur uint64, ncur uint) {
	return r.buf, r.pos, r.cur, r.ncur
}

// SetWindow stores a window obtained from Window and advanced by the
// caller.
func (r *BitReader) SetWindow(pos int, cur uint64, ncur uint) { r.pos, r.cur, r.ncur = pos, cur, ncur }

// Overrun reports whether more bits have been consumed than the buffer
// holds, i.e. whether any value read so far included zero fill. The
// arithmetic is 64-bit so a list past 256 MB cannot wrap a 32-bit int.
func (r *BitReader) Overrun() bool {
	return int64(r.pos)*8-int64(r.ncur) > int64(len(r.buf))*8
}

// take consumes n ≤ 56 bits.
func (r *BitReader) take(n uint) uint64 {
	if r.ncur < n {
		r.Refill()
	}
	v := r.cur >> (64 - n) // n = 0 shifts every bit out
	r.cur <<= n
	r.ncur -= n
	return v
}

// ReadBits reads n bits (0 ≤ n ≤ 64), most significant first.
func (r *BitReader) ReadBits(n uint) (uint64, error) {
	if n > 64 {
		panic(fmt.Sprintf("compress: ReadBits of %d bits", n))
	}
	var v uint64
	if n > 32 {
		v = r.take(n-32) << 32
		n = 32
	}
	v |= r.take(n)
	if r.Overrun() {
		return 0, fmt.Errorf("%w: fixed-width field runs past the end of the input", ErrCorrupt) // cold corruption path; the error message is the product
	}
	return v, nil
}

// ReadUnary reads a unary code and returns its value v ≥ 1.
func (r *BitReader) ReadUnary() (uint64, error) {
	v := uint64(1)
	for {
		if r.ncur == 0 {
			r.Refill()
		}
		ones := uint(bits.LeadingZeros64(^r.cur))
		if ones < r.ncur {
			// The terminating zero is an accounted bit: consume it too.
			v += uint64(ones)
			r.cur <<= ones + 1
			r.ncur -= ones + 1
			break
		}
		// Every accounted bit is a one: the run continues in the next
		// window, and the zero fill ends it at the latest.
		v += uint64(r.ncur)
		r.cur, r.ncur = 0, 0
	}
	if r.Overrun() {
		return 0, fmt.Errorf("%w: unterminated unary code", ErrCorrupt) // cold corruption path; the error message is the product
	}
	return v, nil
}

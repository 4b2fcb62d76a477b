package compress

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReaderBits(t *testing.T) {
	w := NewBitWriter(16)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 5)
	w.WriteBits(0xDEADBEEF, 32)
	buf := w.Bytes()

	r := NewBitReader(buf)
	if v, err := r.ReadBits(3); err != nil || v != 0b101 {
		t.Fatalf("ReadBits(3) = %b, %v", v, err)
	}
	if v, err := r.ReadBits(8); err != nil || v != 0xFF {
		t.Fatalf("ReadBits(8) = %x, %v", v, err)
	}
	if v, err := r.ReadBits(5); err != nil || v != 0 {
		t.Fatalf("ReadBits(5) = %x, %v", v, err)
	}
	if v, err := r.ReadBits(32); err != nil || v != 0xDEADBEEF {
		t.Fatalf("ReadBits(32) = %x, %v", v, err)
	}
}

func TestBitWriter64BitValues(t *testing.T) {
	w := NewBitWriter(32)
	vals := []uint64{0, 1, ^uint64(0), 1 << 63, 0x0123456789ABCDEF}
	for _, v := range vals {
		w.WriteBits(v, 64)
	}
	r := NewBitReader(w.Bytes())
	for _, want := range vals {
		v, err := r.ReadBits(64)
		if err != nil || v != want {
			t.Fatalf("ReadBits(64) = %x, %v; want %x", v, err, want)
		}
	}
}

func TestUnaryRoundTrip(t *testing.T) {
	w := NewBitWriter(64)
	vals := []uint64{1, 2, 3, 7, 64, 65, 100, 129, 300}
	for _, v := range vals {
		w.WriteUnary(v)
	}
	r := NewBitReader(w.Bytes())
	for _, want := range vals {
		v, err := r.ReadUnary()
		if err != nil || v != want {
			t.Fatalf("ReadUnary = %d, %v; want %d", v, err, want)
		}
	}
}

func TestReadPastEnd(t *testing.T) {
	r := NewBitReader([]byte{0xAB})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err == nil {
		t.Error("read past end succeeded")
	}
}

func TestReadUnaryUnterminated(t *testing.T) {
	// All ones: unary never terminates.
	r := NewBitReader([]byte{0xFF, 0xFF})
	if _, err := r.ReadUnary(); err == nil {
		t.Error("unterminated unary read succeeded")
	}
}

func TestBitLenAndLen(t *testing.T) {
	w := NewBitWriter(8)
	if w.BitLen() != 0 || w.Len() != 0 {
		t.Fatalf("empty writer BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
	w.WriteBits(1, 3)
	if w.BitLen() != 3 || w.Len() != 1 {
		t.Fatalf("after 3 bits BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 16 || w.Len() != 2 {
		t.Fatalf("after 16 bits BitLen=%d Len=%d", w.BitLen(), w.Len())
	}
}

func TestWriterReset(t *testing.T) {
	w := NewBitWriter(8)
	w.WriteBits(0xFF, 8)
	w.Reset()
	w.WriteBits(1, 1)
	buf := w.Bytes()
	if len(buf) != 1 || buf[0] != 0x80 {
		t.Errorf("after reset Bytes = %x", buf)
	}
}

func TestPropertyBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(200)
		widths := make([]uint, n)
		vals := make([]uint64, n)
		w := NewBitWriter(n)
		for i := 0; i < n; i++ {
			widths[i] = uint(1 + local.Intn(64))
			vals[i] = local.Uint64() & mask(widths[i])
			w.WriteBits(vals[i], widths[i])
		}
		r := NewBitReader(w.Bytes())
		for i := 0; i < n; i++ {
			v, err := r.ReadBits(widths[i])
			if err != nil || v != vals[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyMixedUnaryBits(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(100)
		type op struct {
			unary bool
			v     uint64
			w     uint
		}
		ops := make([]op, n)
		w := NewBitWriter(n)
		for i := range ops {
			if local.Intn(2) == 0 {
				ops[i] = op{unary: true, v: 1 + uint64(local.Intn(200))}
				w.WriteUnary(ops[i].v)
			} else {
				width := uint(1 + local.Intn(40))
				ops[i] = op{v: local.Uint64() & mask(width), w: width}
				w.WriteBits(ops[i].v, width)
			}
		}
		r := NewBitReader(w.Bytes())
		for _, o := range ops {
			var v uint64
			var err error
			if o.unary {
				v, err = r.ReadUnary()
			} else {
				v, err = r.ReadBits(o.w)
			}
			if err != nil || v != o.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// bitModel is the obvious one-bit-at-a-time reader the word-at-a-time
// BitReader is checked against.
type bitModel struct {
	buf []byte
	at  int
}

func (m *bitModel) bit() (uint64, bool) {
	if m.at >= len(m.buf)*8 {
		return 0, false
	}
	b := m.buf[m.at/8] >> (7 - m.at%8) & 1
	m.at++
	return uint64(b), true
}

func (m *bitModel) readBits(n uint) (v uint64, ok bool) {
	for i := uint(0); i < n; i++ {
		b, ok := m.bit()
		if !ok {
			return 0, false
		}
		v = v<<1 | b
	}
	return v, true
}

func (m *bitModel) readUnary() (uint64, bool) {
	for v := uint64(1); ; v++ {
		b, ok := m.bit()
		if !ok {
			return 0, false
		}
		if b == 0 {
			return v, true
		}
	}
}

// TestBitReaderBoundaries drives random reads over buffers of every
// length from 0 to 17 bytes, so every combination of word refill, byte
// tail and zero fill is crossed: the values equal the one-bit model's,
// and the first read that needs a bit the buffer does not have — and
// only that one — reports ErrCorrupt.
func TestBitReaderBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for length := 0; length <= 17; length++ {
		for trial := 0; trial < 400; trial++ {
			buf := make([]byte, length)
			rng.Read(buf)
			if trial%3 == 0 { // long unary runs: mostly ones
				for i := range buf {
					buf[i] |= byte(rng.Intn(256)) | byte(rng.Intn(256))
				}
			}
			r := NewBitReader(buf)
			m := &bitModel{buf: buf}
			for op := 0; ; op++ {
				var got, want uint64
				var err error
				var ok bool
				var what string
				if rng.Intn(3) == 0 {
					what = "ReadUnary"
					got, err = r.ReadUnary()
					want, ok = m.readUnary()
				} else {
					n := uint(rng.Intn(65))
					if rng.Intn(4) == 0 {
						n = 64
					}
					what = fmt.Sprintf("ReadBits(%d)", n)
					got, err = r.ReadBits(n)
					want, ok = m.readBits(n)
				}
				if !ok {
					if !errors.Is(err, ErrCorrupt) {
						t.Fatalf("len %d buf %x op %d %s: read past the end returned %d, %v", length, buf, op, what, got, err)
					}
					break
				}
				if err != nil || got != want {
					t.Fatalf("len %d buf %x op %d %s = %d, %v; want %d", length, buf, op, what, got, err, want)
				}
				if r.Overrun() {
					t.Fatalf("len %d buf %x op %d: Overrun after a read inside the buffer", length, buf, op)
				}
			}
		}
	}
}

// TestReadBits64AcrossRefill reads a 64-bit field that starts at every
// bit offset of a window, so it always straddles a refill.
func TestReadBits64AcrossRefill(t *testing.T) {
	const v = 0xDEADBEEFCAFEF00D
	for lead := uint(0); lead < 64; lead++ {
		w := NewBitWriter(24)
		w.WriteBits(0, lead)
		w.WriteBits(v, 64)
		w.WriteBits(0b101, 3)
		r := NewBitReader(w.Bytes())
		if got, err := r.ReadBits(lead); err != nil || got != 0 {
			t.Fatalf("lead %d: ReadBits(lead) = %x, %v", lead, got, err)
		}
		if got, err := r.ReadBits(64); err != nil || got != v {
			t.Fatalf("lead %d: ReadBits(64) = %x, %v; want %x", lead, got, err, uint64(v))
		}
		if got, err := r.ReadBits(3); err != nil || got != 0b101 {
			t.Fatalf("lead %d: trailing ReadBits(3) = %b, %v", lead, got, err)
		}
	}
}

// TestReadUnaryLongerThanWindow: unary runs of one to four windows'
// length, at every starting bit offset within a byte.
func TestReadUnaryLongerThanWindow(t *testing.T) {
	for _, v := range []uint64{56, 57, 63, 64, 65, 120, 128, 129, 200, 257} {
		for lead := uint(0); lead < 8; lead++ {
			w := NewBitWriter(48)
			w.WriteBits(0, lead)
			w.WriteUnary(v)
			w.WriteBits(0x5A5, 11)
			r := NewBitReader(w.Bytes())
			if _, err := r.ReadBits(lead); err != nil {
				t.Fatal(err)
			}
			if got, err := r.ReadUnary(); err != nil || got != v {
				t.Fatalf("lead %d: ReadUnary = %d, %v; want %d", lead, got, err, v)
			}
			if got, err := r.ReadBits(11); err != nil || got != 0x5A5 {
				t.Fatalf("lead %d after unary %d: ReadBits(11) = %x, %v", lead, v, got, err)
			}
		}
	}
}

// TestWindowRoundTrip: a caller that lifts the window into locals,
// consumes from it and hands it back leaves the reader where the same
// reads through the methods would.
func TestWindowRoundTrip(t *testing.T) {
	buf := []byte{0xC3, 0x5A, 0xFF, 0x00, 0x81, 0x7E, 0x12, 0x34, 0x56, 0x78, 0x9A}
	a, b := NewBitReader(buf), NewBitReader(buf)
	for i := 0; i < 10; i++ {
		a.Refill()
		_, pos, cur, ncur := a.Window()
		if ncur < 56 {
			t.Fatalf("Refill left %d accounted bits", ncur)
		}
		got := cur >> (64 - 7)
		a.SetWindow(pos, cur<<7, ncur-7)
		want, err := b.ReadBits(7)
		if err != nil || got != want {
			t.Fatalf("step %d: window read %x, ReadBits(7) = %x, %v", i, got, want, err)
		}
	}
}

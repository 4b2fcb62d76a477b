package postings

import (
	"fmt"
	"math/bits"

	"nucleodb/internal/compress"
)

// refIterator is the posting decoder as it stood before the
// word-at-a-time rewrite, frozen verbatim: a byte-at-a-time bit reader
// whose every ReadUnary/ReadBits call returns an error, and an iterator
// that makes five to seven such calls per posting. It is the contract
// the production Iterator is held to — on every byte string both yield
// the same entries before the first error, and one errors iff the other
// does (see TestIteratorMatchesReference and FuzzPostingsDecode). Do not
// optimise it.

type refBitReader struct {
	buf  []byte
	pos  int // byte position of next refill
	cur  uint64
	ncur uint // valid bits remaining in cur, left-aligned
}

func (r *refBitReader) Reset(buf []byte) {
	r.buf, r.pos, r.cur, r.ncur = buf, 0, 0, 0
}

func refMask(n uint) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (1 << n) - 1
}

func (r *refBitReader) refill() {
	for r.ncur <= 56 && r.pos < len(r.buf) {
		r.cur |= uint64(r.buf[r.pos]) << (56 - r.ncur)
		r.ncur += 8
		r.pos++
	}
}

func (r *refBitReader) ReadBit() (uint, error) {
	v, err := r.ReadBits(1)
	return uint(v), err
}

func (r *refBitReader) ReadBits(n uint) (uint64, error) {
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
				return 0, fmt.Errorf("%w: need %d more bits", compress.ErrCorrupt, need)
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

func (r *refBitReader) ReadUnary() (uint64, error) {
	v := uint64(1)
	for {
		if r.ncur == 0 {
			r.refill()
			if r.ncur == 0 {
				return 0, fmt.Errorf("%w: unterminated unary code", compress.ErrCorrupt)
			}
		}
		// Count leading ones in the available window.
		window := r.cur | refMask(64-r.ncur) // treat exhausted bits as ones so they don't terminate
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

func refGetGamma(r *refBitReader) (uint64, error) {
	n, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	if n > 64 {
		return 0, fmt.Errorf("%w: gamma length %d", compress.ErrCorrupt, n)
	}
	low, err := r.ReadBits(uint(n - 1))
	if err != nil {
		return 0, err
	}
	return 1<<(n-1) | low, nil
}

func refGetGolomb(r *refBitReader, b uint64) (uint64, error) {
	if b == 0 {
		panic("compress: golomb parameter 0")
	}
	q, err := r.ReadUnary()
	if err != nil {
		return 0, err
	}
	rem, err := refGetTruncated(r, b)
	if err != nil {
		return 0, err
	}
	return (q-1)*b + rem + 1, nil
}

func refGetTruncated(r *refBitReader, b uint64) (uint64, error) {
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
	bit, err := r.ReadBit()
	if err != nil {
		return 0, err
	}
	return v<<1 | uint64(bit) - t, nil
}

type refIterator struct {
	r           refBitReader
	b           uint64 // golomb parameter
	df          int
	read        int
	numSeqs     int64 // identifier universe; decoded ids must stay below it
	withOffsets bool
	prev        int64 // last absolute id decoded, -1 before the first
	cur         Entry
	offsets     []uint32
	err         error
}

func (it *refIterator) Reset(buf []byte, df, numSeqs int, withOffsets bool) {
	it.r.Reset(buf)
	it.df = df
	it.read = 0
	it.numSeqs = int64(numSeqs)
	it.withOffsets = withOffsets
	it.cur = Entry{}
	it.err = nil
	if df > 0 {
		it.b = compress.GolombParameter(uint64(numSeqs), uint64(df))
	}
	it.prev = -1
}

func (it *refIterator) Next() bool {
	if it.err != nil || it.read >= it.df {
		return false
	}
	gap, err := refGetGolomb(&it.r, it.b)
	if err != nil {
		it.err = fmt.Errorf("postings: entry %d id: %w", it.read, err)
		return false
	}
	// Guard before widening to uint32: a corrupt gap run must surface as
	// an error here, not as an out-of-range id that indexes the coarse
	// accumulator's per-sequence arrays.
	if gap > uint64(it.numSeqs) || it.prev+int64(gap) >= it.numSeqs {
		it.err = fmt.Errorf("postings: entry %d id gap %d runs outside universe %d", it.read, gap, it.numSeqs)
		return false
	}
	id := it.prev + int64(gap)
	it.prev = id
	count, err := refGetGamma(&it.r)
	if err != nil {
		it.err = fmt.Errorf("postings: entry %d count: %w", it.read, err)
		return false
	}
	if count == 0 || count > 1<<31 {
		it.err = fmt.Errorf("postings: entry %d implausible count %d", it.read, count)
		return false
	}
	it.cur = Entry{ID: uint32(id), Count: uint32(count)}
	if it.withOffsets {
		it.offsets = it.offsets[:0]
		prevOff := int64(-1)
		for j := uint64(0); j < count; j++ {
			og, err := refGetGamma(&it.r)
			if err != nil {
				it.err = fmt.Errorf("postings: entry %d offset %d: %w", it.read, j, err)
				return false
			}
			if og > 1<<32 || prevOff+int64(og) > 1<<32-1 {
				it.err = fmt.Errorf("postings: entry %d offset %d overflows uint32", it.read, j)
				return false
			}
			prevOff += int64(og)
			it.offsets = append(it.offsets, uint32(prevOff))
		}
		it.cur.Offsets = it.offsets
	}
	it.read++
	return true
}

func (it *refIterator) Entry() Entry { return it.cur }
func (it *refIterator) Err() error   { return it.err }

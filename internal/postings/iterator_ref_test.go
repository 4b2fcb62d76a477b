package postings

import (
	"fmt"
	"math/bits"

	"nucleodb/internal/compress"
)

// refIterator is the contract the production decoders are held to: a
// plain decoder of the split layout over a byte-at-a-time bit reader
// whose every ReadUnary/ReadBits call returns an error when the list
// runs out. Its first Next decodes the whole id stream — each posting's
// Golomb id gap and gamma count, the gap checked against the universe
// and the count against 2³¹ — so an error there surfaces before any
// entry; each Next then decodes one posting's Rice-coded offset gaps,
// with the parameter computed per posting rather than read from Seqs'
// table, an offset at or past its sequence's length being corrupt. On
// every byte string the production Iterator yields the same entries
// before the first error, and errs iff it does (TestIteratorMatchesReference,
// FuzzPostingsDecode). Do not optimise it.

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

func refGetRice(r *refBitReader, k uint) (uint64, error) {
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
	r       refBitReader
	df      int
	read    int
	numSeqs int64 // identifier universe; decoded ids must stay below it
	lens    []int32
	ids     []int64 // the id stream, decoded by the first Next
	counts  []uint64
	cur     Entry
	offsets []uint32
	err     error
}

func (it *refIterator) Reset(buf []byte, df int, seqs Seqs) {
	it.r.Reset(buf)
	it.df = df
	it.read = 0
	it.numSeqs = int64(seqs.Len())
	it.lens = seqs.lens
	it.ids, it.counts = it.ids[:0], it.counts[:0]
	it.cur = Entry{}
	it.err = nil
}

// idStream decodes the df (id gap, count) pairs of the id stream.
func (it *refIterator) idStream() error {
	b := compress.GolombParameter(uint64(it.numSeqs), uint64(it.df))
	prev := int64(-1)
	for i := 0; i < it.df; i++ {
		gap, err := refGetGolomb(&it.r, b)
		if err != nil {
			return fmt.Errorf("postings: entry %d id: %w", i, err)
		}
		if gap > uint64(it.numSeqs) || prev+int64(gap) >= it.numSeqs {
			return fmt.Errorf("postings: entry %d id gap %d runs outside universe %d", i, gap, it.numSeqs)
		}
		prev += int64(gap)
		count, err := refGetGamma(&it.r)
		if err != nil {
			return fmt.Errorf("postings: entry %d count: %w", i, err)
		}
		if count == 0 || count > 1<<31 {
			return fmt.Errorf("postings: entry %d implausible count %d", i, count)
		}
		it.ids = append(it.ids, prev)
		it.counts = append(it.counts, count)
	}
	return nil
}

func (it *refIterator) Next() bool {
	if it.err != nil || it.read >= it.df {
		return false
	}
	if it.read == 0 {
		if it.err = it.idStream(); it.err != nil {
			return false
		}
	}
	id, count := it.ids[it.read], it.counts[it.read]
	it.offsets = it.offsets[:0]
	length := int64(it.lens[id])
	k := offsetParameter(it.lens[id], count)
	prevOff := int64(-1)
	for j := uint64(0); j < count; j++ {
		og, err := refGetRice(&it.r, k)
		if err != nil {
			it.err = fmt.Errorf("postings: entry %d offset %d: %w", it.read, j, err)
			return false
		}
		if og > uint64(length) || prevOff+int64(og) >= length {
			it.err = fmt.Errorf("postings: entry %d offset %d: %w: past sequence length %d", it.read, j, compress.ErrCorrupt, length)
			return false
		}
		prevOff += int64(og)
		it.offsets = append(it.offsets, uint32(prevOff))
	}
	it.cur = Entry{ID: uint32(id), Count: uint32(count), Offsets: it.offsets}
	it.read++
	return true
}

func (it *refIterator) Entry() Entry { return it.cur }
func (it *refIterator) Err() error   { return it.err }

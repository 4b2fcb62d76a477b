// Package postings implements compressed inverted lists: for one
// interval term, the ascending list of sequence identifiers containing
// it, each with an occurrence count and optionally the in-sequence
// offsets of the occurrences.
//
// The encoding follows the paper's inverted-file compression recipe:
// identifier gaps are Golomb-coded with the parameter derived from list
// density (universe = number of sequences, occurrences = document
// frequency), occurrence counts are Elias-gamma coded, and offset gaps
// are Elias-gamma coded. The document frequency itself lives in the
// lexicon, so a list is decodable given (document frequency, number of
// sequences, whether offsets are present).
package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"nucleodb/internal/compress"
)

// Entry is one posting: a sequence id, the number of occurrences of the
// term in that sequence, and optionally the ascending offsets of those
// occurrences. When offsets are stored, Count == len(Offsets).
type Entry struct {
	ID      uint32
	Count   uint32
	Offsets []uint32
}

// Encode compresses entries into a byte buffer. Entries must be in
// strictly ascending ID order; numSeqs is the identifier universe size
// (all IDs < numSeqs); withOffsets selects whether offsets are encoded.
func Encode(entries []Entry, numSeqs int, withOffsets bool) ([]byte, error) {
	if err := validate(entries, numSeqs, withOffsets); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, nil
	}
	b := compress.GolombParameter(uint64(numSeqs), uint64(len(entries)))
	w := compress.NewBitWriter(len(entries) * 2)
	prev := int64(-1)
	for _, e := range entries {
		compress.PutGolomb(w, uint64(int64(e.ID)-prev), b)
		prev = int64(e.ID)
		compress.PutGamma(w, uint64(e.Count))
		if withOffsets {
			prevOff := int64(-1)
			for _, off := range e.Offsets {
				compress.PutGamma(w, uint64(int64(off)-prevOff))
				prevOff = int64(off)
			}
		}
	}
	return w.Bytes(), nil
}

func validate(entries []Entry, numSeqs int, withOffsets bool) error {
	if numSeqs <= 0 && len(entries) > 0 {
		return fmt.Errorf("postings: numSeqs %d with %d entries", numSeqs, len(entries))
	}
	prev := int64(-1)
	for i, e := range entries {
		if int64(e.ID) <= prev {
			return fmt.Errorf("postings: entry %d id %d not ascending after %d", i, e.ID, prev)
		}
		prev = int64(e.ID)
		if int(e.ID) >= numSeqs {
			return fmt.Errorf("postings: entry %d id %d outside universe %d", i, e.ID, numSeqs)
		}
		if e.Count == 0 {
			return fmt.Errorf("postings: entry %d has zero count", i)
		}
		if withOffsets {
			if int(e.Count) != len(e.Offsets) {
				return fmt.Errorf("postings: entry %d count %d != %d offsets", i, e.Count, len(e.Offsets))
			}
			if !sort.SliceIsSorted(e.Offsets, func(a, b int) bool { return e.Offsets[a] < e.Offsets[b] }) {
				return fmt.Errorf("postings: entry %d offsets not ascending", i)
			}
			for j := 1; j < len(e.Offsets); j++ {
				if e.Offsets[j] == e.Offsets[j-1] {
					return fmt.Errorf("postings: entry %d duplicate offset %d", i, e.Offsets[j])
				}
			}
		}
	}
	return nil
}

// Decode expands a compressed list. df is the entry count recorded in
// the lexicon; numSeqs and withOffsets must match the encoding call.
func Decode(buf []byte, df, numSeqs int, withOffsets bool) ([]Entry, error) {
	if df == 0 {
		return nil, nil
	}
	entries := make([]Entry, 0, df)
	var it Iterator
	it.Reset(buf, df, numSeqs, withOffsets)
	for it.Next() {
		e := it.Entry()
		if withOffsets {
			offs := make([]uint32, len(e.Offsets))
			copy(offs, e.Offsets)
			e.Offsets = offs
		}
		entries = append(entries, e)
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	return entries, nil
}

// Iterator streams a compressed list without allocating per entry; the
// coarse-search hot path uses it directly. The Offsets slice returned by
// Entry is reused between calls to Next. The zero value is an empty
// iterator.
//
// Decoding is word-at-a-time: Next lifts the bit reader's window into
// locals, takes each code's unary part with one leading-zeros count and
// its binary part with one shift, and checks once, before the entry is
// handed out, that no consumed bit lay beyond the list (the reader
// zero-fills past the end, so a truncated list decodes a garbage tail
// that this check, or a value check before it, rejects). Codes too long
// for one window go through the general reader.
type Iterator struct {
	r compress.BitReader
	// Golomb parameter b of the whole list and its truncated-binary
	// constants: k = ⌈log₂ b⌉, t = 2ᵏ − b; remainders below t take
	// km1 = k−1 bits, the rest k (both 0 when b is 1).
	b, t        uint64
	k, km1      uint
	df          int // entries in the list
	read        int
	numSeqs     int64 // identifier universe; decoded ids must stay below it
	withOffsets bool
	prev        int64 // last absolute id decoded, -1 before the first
	cur         Entry
	offsets     []uint32
	err         error
	lent        []byte // backing of Buffer, reused across lists
}

// Buffer returns an n-byte buffer owned by the iterator, for a caller
// that has to bring the list in from elsewhere (a paged index reading
// from disk) before it can call Reset. The iterator is done with its
// previous list by then, so one buffer serves every list it reads; it is
// valid until the next Buffer call.
func (it *Iterator) Buffer(n int) []byte {
	if cap(it.lent) < n {
		it.lent = make([]byte, n)
	}
	return it.lent[:n]
}

// Reset prepares the iterator over a compressed list with the given
// document frequency and universe.
//
//cafe:hotpath
func (it *Iterator) Reset(buf []byte, df, numSeqs int, withOffsets bool) {
	it.r.Reset(buf)
	it.df = df
	it.read = 0
	it.numSeqs = int64(numSeqs)
	it.withOffsets = withOffsets
	it.cur = Entry{}
	it.err = nil
	if df > 0 {
		it.b = compress.GolombParameter(uint64(numSeqs), uint64(df))
		it.k = uint(bits.Len64(it.b - 1))
		it.t = 1<<it.k - it.b
		it.km1 = max(it.k, 1) - 1
	}
	it.prev = -1
}

// Fail leaves the iterator empty with err as its error, for a caller
// that could not bring the list in (a paged index whose read failed):
// whoever iterates then sees that failure itself, not a decode error
// over bytes that were never read.
func (it *Iterator) Fail(err error) {
	it.Reset(nil, 0, 0, false)
	it.err = err
}

// gammaFast bounds the unary part of a gamma code decoded from one
// window: below it the code is at most 2·27+1 = 55 bits, within the 56
// a refill guarantees.
const gammaFast = 28

// Next advances to the next entry, returning false at the end of the
// list or on error; check Err afterwards.
//
//cafe:hotpath
func (it *Iterator) Next() bool {
	if it.err != nil || it.read >= it.df {
		return false
	}
	buf, pos, cur, ncur := it.r.Window()

	// Identifier gap: Golomb — quotient in unary, remainder in truncated
	// binary. Both widths of the remainder are taken and one selected, so
	// the coin-flip between them is a conditional move, not a branch.
	// The refill is BitReader.Refill's word arm written out (here and
	// twice below: as a call it cost the prototype 9 % of the coarse
	// phase). Shift counts already below 64 are masked with 63, which
	// spares the compiler the range fix-up Go's shifts otherwise need;
	// the two remainder shifts can be a full 64 (k or km1 = 0) and are
	// split into 1 + (63 − width).
	if pos+8 <= len(buf) {
		cur |= binary.BigEndian.Uint64(buf[pos:]) >> (ncur & 63)
		n := (63 - ncur) >> 3
		pos += int(n)
		ncur += n << 3
	} else {
		pos, cur, ncur = it.refillTail(pos, cur, ncur)
	}
	var gap uint64
	if q := uint(bits.LeadingZeros64(^cur)); q+1+it.k < 56 {
		cur <<= (q + 1) & 63
		short := cur >> 1 >> ((63 - it.km1) & 63)
		rem, used := cur>>1>>((63-it.k)&63)-it.t, it.k
		if short < it.t {
			rem, used = short, it.km1
		}
		cur <<= used & 63
		ncur -= q + 1 + used
		gap = uint64(q)*it.b + rem + 1
	} else {
		it.r.SetWindow(pos, cur, ncur)
		g, err := compress.GetGolomb(&it.r, it.b)
		if err != nil {
			it.err = fmt.Errorf("postings: entry %d id: %w", it.read, err) //cafe:allow cold corruption path
			return false
		}
		gap = g
		it.r.Refill() // the count's fast arm below expects an accounted bit
		_, pos, cur, ncur = it.r.Window()
	}
	// Guard before widening to uint32: a corrupt gap run must surface as
	// an error here, not as an out-of-range id that indexes the coarse
	// accumulator's per-sequence arrays.
	if gap > uint64(it.numSeqs) || it.prev+int64(gap) >= it.numSeqs {
		it.err = fmt.Errorf("postings: entry %d id gap %d runs outside universe %d", it.read, gap, it.numSeqs) //cafe:allow cold corruption path
		return false
	}
	id := it.prev + int64(gap)

	// Occurrence count: gamma, on this collection almost always the
	// one-bit code of 1.
	var count uint64
	if int64(cur) >= 0 {
		count = 1 // the one-bit code; the fast Golomb arm left at least one bit
		cur <<= 1
		ncur--
	} else {
		if pos+8 <= len(buf) {
			cur |= binary.BigEndian.Uint64(buf[pos:]) >> (ncur & 63)
			n := (63 - ncur) >> 3
			pos += int(n)
			ncur += n << 3
		} else {
			pos, cur, ncur = it.refillTail(pos, cur, ncur)
		}
		if n := uint(bits.LeadingZeros64(^cur)); n < gammaFast {
			count = cur<<(n&63)>>((63-n)&63) | 1<<(n&63)
			cur <<= (2*n + 1) & 63
			ncur -= 2*n + 1
		} else {
			var err error
			if count, err = it.slowGamma(pos, cur, ncur); err != nil {
				it.err = fmt.Errorf("postings: entry %d count: %w", it.read, err) //cafe:allow cold corruption path
				return false
			}
			_, pos, cur, ncur = it.r.Window()
		}
	}
	if count > 1<<31 {
		it.err = fmt.Errorf("postings: entry %d implausible count %d", it.read, count) //cafe:allow cold corruption path
		return false
	}

	var offsets []uint32
	if it.withOffsets {
		// An offset costs at least one bit, so a count above the bits the
		// list has left is corrupt; rejecting it here keeps the loop (and
		// the scratch it grows) within the list's own bit length however
		// long the zero fill would let it run.
		if int64(count) > int64(len(buf))*8-(int64(pos)*8-int64(ncur)) {
			it.err = fmt.Errorf("postings: entry %d: %w: count %d exceeds the bits left in the list", it.read, compress.ErrCorrupt, count) //cafe:allow cold corruption path
			return false
		}
		offsets = it.offsets[:0]
		prevOff := int64(-1)
		for j := uint64(0); j < count; j++ {
			n := uint(bits.LeadingZeros64(^cur))
			if 2*n+1 > ncur {
				if pos+8 <= len(buf) {
					cur |= binary.BigEndian.Uint64(buf[pos:]) >> (ncur & 63)
					n := (63 - ncur) >> 3
					pos += int(n)
					ncur += n << 3
				} else {
					pos, cur, ncur = it.refillTail(pos, cur, ncur)
				}
				n = uint(bits.LeadingZeros64(^cur))
			}
			var og uint64
			if n < gammaFast {
				og = cur<<(n&63)>>((63-n)&63) | 1<<(n&63)
				cur <<= (2*n + 1) & 63
				ncur -= 2*n + 1
			} else {
				var err error
				if og, err = it.slowGamma(pos, cur, ncur); err != nil {
					it.err = fmt.Errorf("postings: entry %d offset %d: %w", it.read, j, err) //cafe:allow cold corruption path
					return false
				}
				_, pos, cur, ncur = it.r.Window()
			}
			if og > 1<<32 || prevOff+int64(og) > 1<<32-1 {
				it.err = fmt.Errorf("postings: entry %d offset %d overflows uint32", it.read, j) //cafe:allow cold corruption path
				return false
			}
			prevOff += int64(og)
			offsets = append(offsets, uint32(prevOff)) //cafe:allow amortised scratch, reused across entries and reset by Reset
		}
		it.offsets = offsets
	}

	// The one overrun check: every bit this entry consumed must lie
	// inside the list, or the entry is zero fill and is not handed out.
	it.r.SetWindow(pos, cur, ncur)
	if it.r.Overrun() {
		it.err = fmt.Errorf("postings: entry %d: %w: runs past the end of the list", it.read, compress.ErrCorrupt) //cafe:allow cold corruption path
		return false
	}
	it.prev = id
	it.cur = Entry{ID: uint32(id), Count: uint32(count), Offsets: offsets}
	it.read++
	return true
}

// refillTail is Next's refill once fewer than eight bytes remain.
//
//cafe:hotpath
func (it *Iterator) refillTail(pos int, cur uint64, ncur uint) (int, uint64, uint) {
	it.r.SetWindow(pos, cur, ncur)
	it.r.Refill()
	_, pos, cur, ncur = it.r.Window()
	return pos, cur, ncur
}

// slowGamma decodes a gamma code too long for one window through the
// general reader; the caller reloads its window from it.r afterwards.
//
//cafe:hotpath
func (it *Iterator) slowGamma(pos int, cur uint64, ncur uint) (uint64, error) {
	it.r.SetWindow(pos, cur, ncur)
	return compress.GetGamma(&it.r)
}

// Entry returns the current entry. Valid after Next returns true; the
// Offsets slice is reused by subsequent Next calls.
//
//cafe:hotpath
func (it *Iterator) Entry() Entry { return it.cur }

// Decoded returns the number of entries decoded since Reset — the
// work-accounting hook the search pipeline's stats use. It equals the
// document frequency once the list is exhausted.
//
//cafe:hotpath
func (it *Iterator) Decoded() int { return it.read }

// Err returns the first decoding error encountered, or the error given
// to Fail, if any.
//
//cafe:hotpath
func (it *Iterator) Err() error { return it.err }

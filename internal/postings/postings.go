// Package postings implements compressed inverted lists: for one
// interval term, the ascending list of sequence identifiers containing
// it, each with an occurrence count and the in-sequence offsets of the
// occurrences.
//
// The encoding follows the paper's inverted-file compression recipe,
// its local model applied twice. Identifier gaps are Golomb-coded with
// the parameter derived from list density (universe = number of
// sequences, occurrences = document frequency). Occurrence counts are
// Elias-gamma coded. Offset gaps are Rice-coded with the parameter
// derived from the posting's own density (universe = the sequence's
// length, occurrences = the count), so a one-offset posting in a
// 20 000-base sequence spends about 15 bits where a gamma code spends
// 27 or more. Neither parameter is stored: the document frequency lives
// in the lexicon and the sequence lengths in Seqs, so a list is
// decodable given its document frequency and Seqs.
package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"nucleodb/internal/compress"
)

// Entry is one posting: a sequence id, the number of occurrences of the
// term in that sequence, and the ascending offsets of those
// occurrences; Count == len(Offsets).
type Entry struct {
	ID      uint32
	Count   uint32
	Offsets []uint32
}

// Seqs is the universe lists are coded against: one length per
// sequence, indexed by id. Identifiers lie below Len() and the offsets
// of sequence id below its length. It carries, derived once, each
// sequence's Rice parameter for a one-offset posting (99.5 % of the
// benchmark collection's postings), so the decoder reads a byte where
// it would otherwise divide. The zero value is the empty universe.
type Seqs struct {
	lens  []int32
	rice1 []uint8 // one per sequence, like lens
}

// NewSeqs returns the universe of sequences with the given lengths. It
// keeps lens, which the caller must not modify afterwards.
func NewSeqs(lens []int32) Seqs {
	rice1 := make([]uint8, len(lens))
	for i, l := range lens {
		rice1[i] = uint8(offsetParameter(l, 1))
	}
	return Seqs{lens: lens, rice1: rice1}
}

// Len returns the number of sequences.
func (s Seqs) Len() int { return len(s.lens) }

// offsetParameter is the Rice parameter of a posting's offset gaps:
// count occurrences spread over a sequence of length bases.
func offsetParameter(length int32, count uint64) uint {
	return compress.RiceParameter(uint64(max(length, 0)), count)
}

// Encode compresses entries into a byte buffer. Entries must be in
// strictly ascending ID order, every ID below seqs.Len() and every
// offset below its sequence's length.
func Encode(entries []Entry, seqs Seqs) ([]byte, error) {
	if err := validate(entries, seqs); err != nil {
		return nil, err
	}
	if len(entries) == 0 {
		return nil, nil
	}
	b := compress.GolombParameter(uint64(seqs.Len()), uint64(len(entries)))
	w := compress.NewBitWriter(len(entries) * 2)
	prev := int64(-1)
	for _, e := range entries {
		compress.PutGolomb(w, uint64(int64(e.ID)-prev), b)
		prev = int64(e.ID)
		compress.PutGamma(w, uint64(e.Count))
		k := uint(seqs.rice1[e.ID])
		if e.Count > 1 {
			k = offsetParameter(seqs.lens[e.ID], uint64(e.Count))
		}
		prevOff := int64(-1)
		for _, off := range e.Offsets {
			compress.PutRice(w, uint64(int64(off)-prevOff), k)
			prevOff = int64(off)
		}
	}
	return w.Bytes(), nil
}

func validate(entries []Entry, seqs Seqs) error {
	numSeqs := seqs.Len()
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
		if last := int64(e.Offsets[len(e.Offsets)-1]); last >= int64(seqs.lens[e.ID]) {
			return fmt.Errorf("postings: entry %d offset %d outside sequence %d of length %d", i, last, e.ID, seqs.lens[e.ID])
		}
	}
	return nil
}

// Decode expands a compressed list. df is the entry count recorded in
// the lexicon; seqs must match the encoding call.
func Decode(buf []byte, df int, seqs Seqs) ([]Entry, error) {
	if df == 0 {
		return nil, nil
	}
	entries := make([]Entry, 0, df)
	var it Iterator
	it.Reset(buf, df, seqs)
	for it.Next() {
		e := it.Entry()
		e.Offsets = append([]uint32(nil), e.Offsets...)
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
	b, t    uint64
	k, km1  uint
	df      int // entries in the list
	read    int
	numSeqs int64 // identifier universe; decoded ids must stay below it
	lens    []int32
	rice1   []uint8 // Seqs.rice1: the offset parameter of a count-1 posting
	prev    int64   // last absolute id decoded, -1 before the first
	cur     Entry
	offsets []uint32
	err     error
	lent    []byte // backing of Buffer, reused across lists
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
func (it *Iterator) Reset(buf []byte, df int, seqs Seqs) {
	it.r.Reset(buf)
	it.df = df
	it.read = 0
	it.numSeqs = int64(seqs.Len())
	it.lens, it.rice1 = seqs.lens, seqs.rice1
	it.cur = Entry{}
	it.err = nil
	if df > 0 {
		it.b = compress.GolombParameter(uint64(it.numSeqs), uint64(df))
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
	it.Reset(nil, 0, Seqs{})
	it.err = err
}

// gammaFast bounds the unary part of a gamma code decoded from one
// window: below it the code is at most 2·27+1 = 55 bits, within the 56
// a refill guarantees.
const gammaFast = 28

// Next advances to the next entry, returning false at the end of the
// list or on error; check Err afterwards.
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
			it.err = fmt.Errorf("postings: entry %d id: %w", it.read, err) // cold corruption path
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
		it.err = fmt.Errorf("postings: entry %d id gap %d runs outside universe %d", it.read, gap, it.numSeqs) // cold corruption path
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
				it.err = fmt.Errorf("postings: entry %d count: %w", it.read, err) // cold corruption path
				return false
			}
			_, pos, cur, ncur = it.r.Window()
		}
	}
	if count > 1<<31 {
		it.err = fmt.Errorf("postings: entry %d implausible count %d", it.read, count) // cold corruption path
		return false
	}

	// An offset costs at least one bit, so a count above the bits the
	// list has left is corrupt; rejecting it here keeps the loop (and
	// the scratch it grows) within the list's own bit length however
	// long the zero fill would let it run.
	if int64(count) > int64(len(buf))*8-(int64(pos)*8-int64(ncur)) {
		it.err = fmt.Errorf("postings: entry %d: %w: count %d exceeds the bits left in the list", it.read, compress.ErrCorrupt, count) // cold corruption path
		return false
	}
	// Offset gaps: Rice codes — q ones, a zero, k low bits — with the
	// parameter of the posting's sequence and count. The one offset of
	// a count-1 posting, nearly every posting, is decoded here from the
	// window with k from the table; a longer run, or a code longer than
	// the window, goes through offsetRun. An offset at or past the
	// sequence's end is corrupt, which also keeps it within uint32.
	offsets := it.offsets[:0]
	k := uint(it.rice1[id])
	q := uint(bits.LeadingZeros64(^cur))
	if q+1+k > ncur {
		if pos+8 <= len(buf) {
			cur |= binary.BigEndian.Uint64(buf[pos:]) >> (ncur & 63)
			n := (63 - ncur) >> 3
			pos += int(n)
			ncur += n << 3
		} else {
			pos, cur, ncur = it.refillTail(pos, cur, ncur)
		}
		q = uint(bits.LeadingZeros64(^cur))
	}
	if n := q + 1 + k; count == 1 && n <= ncur {
		off := uint64(q)<<(k&63) | cur<<((q+1)&63)>>1>>((63-k)&63)
		if off >= uint64(it.lens[id]) {
			it.err = fmt.Errorf("postings: entry %d offset 0: %w: %d runs past sequence %d of length %d", it.read, compress.ErrCorrupt, off, id, it.lens[id]) // cold corruption path
			return false
		}
		offsets = append(offsets, uint32(off)) // amortised scratch, reused across entries and reset by Reset
		cur <<= n & 63
		ncur -= n
	} else {
		var err error
		if offsets, err = it.offsetRun(pos, cur, ncur, id, count); err != nil {
			it.err = err
			return false
		}
		_, pos, cur, ncur = it.r.Window()
	}
	it.offsets = offsets

	// The one overrun check: every bit this entry consumed must lie
	// inside the list, or the entry is zero fill and is not handed out.
	it.r.SetWindow(pos, cur, ncur)
	if it.r.Overrun() {
		it.err = fmt.Errorf("postings: entry %d: %w: runs past the end of the list", it.read, compress.ErrCorrupt) // cold corruption path
		return false
	}
	it.prev = id
	it.cur = Entry{ID: uint32(id), Count: uint32(count), Offsets: offsets}
	it.read++
	return true
}

// refillTail is Next's refill once fewer than eight bytes remain.
func (it *Iterator) refillTail(pos int, cur uint64, ncur uint) (int, uint64, uint) {
	it.r.SetWindow(pos, cur, ncur)
	it.r.Refill()
	_, pos, cur, ncur = it.r.Window()
	return pos, cur, ncur
}

// offsetRun decodes a posting's offsets through the general reader,
// for Next when they are more than one or their code is longer than one
// window; Next reloads its window from it.r afterwards.
func (it *Iterator) offsetRun(pos int, cur uint64, ncur uint, id int64, count uint64) ([]uint32, error) {
	it.r.SetWindow(pos, cur, ncur)
	length := int64(it.lens[id])
	k := offsetParameter(it.lens[id], count)
	offsets := it.offsets[:0]
	prevOff := int64(-1)
	for j := uint64(0); j < count; j++ {
		og, err := compress.GetRice(&it.r, k)
		if err != nil {
			return nil, fmt.Errorf("postings: entry %d offset %d: %w", it.read, j, err) // cold corruption path
		}
		if og >= uint64(length-prevOff) {
			return nil, fmt.Errorf("postings: entry %d offset %d: %w: gap %d runs past sequence %d of length %d", it.read, j, compress.ErrCorrupt, og, id, length) // cold corruption path
		}
		prevOff += int64(og)
		offsets = append(offsets, uint32(prevOff)) // amortised scratch, reused across entries and reset by Reset
	}
	return offsets, nil
}

// slowGamma decodes a gamma code too long for one window through the
// general reader; the caller reloads its window from it.r afterwards.
func (it *Iterator) slowGamma(pos int, cur uint64, ncur uint) (uint64, error) {
	it.r.SetWindow(pos, cur, ncur)
	return compress.GetGamma(&it.r)
}

// Entry returns the current entry. Valid after Next returns true; the
// Offsets slice is reused by subsequent Next calls.
func (it *Iterator) Entry() Entry { return it.cur }

// Decoded returns the number of entries decoded since Reset — the
// work-accounting hook the search pipeline's stats use. It equals the
// document frequency once the list is exhausted.
func (it *Iterator) Decoded() int { return it.read }

// Err returns the first decoding error encountered, or the error given
// to Fail, if any.
func (it *Iterator) Err() error { return it.err }

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
//
// A list is two streams in one bit string, as a text index keeps its
// document data apart from its positions: first every posting's id gap
// and count (the id stream), then every posting's offset gaps (the
// offset stream), each posting's codes in list order, with no padding
// between the two. Ranking needs only the id stream (IDs); a posting's
// offsets are read after ranking, for the few postings that need them
// (Offsets), skipping the others' codes. Both decoders read whole
// 64-bit words, and read them from the list's backing array past its
// end when it runs on (the next list in a blob, or Slack bytes a reader
// appends), so that the last codes of a list take the word path too;
// what lies there is never trusted: every decoder checks that no bit
// it consumed lay past the list's own length.
package postings

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// Slack is the number of bytes past a list's end that let the decoders
// read its last codes a whole word at a time. A reader that copies a
// list into a buffer of its own appends them; their contents do not
// matter.
const Slack = 8

// Multi flags an id that IDs logged for a posting with more than one
// offset, whose count it appended to the counts array. Identifiers are
// below it: a universe holds at most 2³¹−1 sequences.
const Multi = 1 << 31

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
	}
	for _, e := range entries {
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

// window is a decoder's place in a list, as compress.BitReader keeps
// it: the byte the next refill reads, and a left-aligned window whose
// top ncur bits are accounted for, so 8·pos − ncur bits are consumed.
type window struct {
	pos  int
	cur  uint64
	ncur uint
}

// consumed returns the bits consumed so far.
func (w window) consumed() int64 { return int64(w.pos)*8 - int64(w.ncur) }

// overran reports whether a consumed bit lay past a list of n bytes.
func (w window) overran(n int) bool { return w.consumed() > int64(n)*8 }

// refill is BitReader.Refill's word arm, for a decoder that keeps its
// window in locals: it ORs in the big-endian word at backing[pos:],
// which must hold eight bytes, and accounts for its whole bytes, so at
// least 56 bits are accounted afterwards. Shift counts already below 64
// are masked with 63, which spares the compiler the range fix-up Go's
// shifts otherwise need.
func refill(backing []byte, pos int, cur uint64, ncur uint) (int, uint64, uint) {
	cur |= binary.BigEndian.Uint64(backing[pos:]) >> (ncur & 63)
	n := (63 - ncur) >> 3
	return pos + int(n), cur, ncur + n<<3
}

// rice decodes the Rice code with parameter k at the top of cur — q
// ones, a zero, k low bits — and returns its value and its length n in
// bits, which the caller checks against the window's accounted bits.
// The low bits' shift can be a full 64 (k = 0) and is split into
// 1 + (63 − k).
func rice(cur uint64, k uint) (gap uint64, n uint) {
	q := uint(bits.LeadingZeros64(^cur))
	return uint64(q)<<(k&63) | cur<<((q+1)&63)>>1>>((63-k)&63) + 1, q + 1 + k
}

// refillTail tops the window up through the general reader over list,
// which reads its bytes and zeros past it: the refill once fewer than
// eight bytes of the backing remain.
func refillTail(list []byte, w window) window {
	var r compress.BitReader
	r.Reset(list)
	r.SetWindow(w.pos, w.cur, w.ncur)
	r.Refill()
	_, w.pos, w.cur, w.ncur = r.Window()
	return w
}

// seek returns the window at bit from of list.
func seek(list []byte, from int64) window {
	var r compress.BitReader
	r.Reset(list)
	r.SetWindow(int(from>>3), 0, 0)
	r.Refill()
	_, pos, cur, ncur := r.Window()
	skip := uint(from & 7)
	return window{pos: pos, cur: cur << skip, ncur: ncur - skip}
}

// IDs decodes the id stream of list, which holds df postings over seqs.
// It appends each posting's id plus base to ids, with Multi set when the
// posting has more than one offset, and each such posting's count to
// counts, and returns the bit at which the list's offset stream starts.
// On error ids and counts come back as they were given. base plus
// seqs.Len() must not pass 2³¹−1, so that no id reaches Multi.
//
// One loop, which makes no call, decodes the postings whose codes fit
// one refilled window and whose count is 1 (the one-bit gamma code).
// It leaves for the general reader on a longer code, a count above 1,
// or the last eight bytes of the list's backing, for that one posting,
// and resumes. A decoded id at or past the universe is corrupt; so is a
// stream that ends past the list, which the loop checks once, at the
// end.
func IDs(ids, counts []uint32, list []byte, df int, seqs Seqs, base uint32) ([]uint32, []uint32, int64, error) {
	if df <= 0 {
		return ids, counts, 0, nil
	}
	n0, c0 := len(ids), len(counts)
	ids = slices.Grow(ids, df)[:n0+df] // amortised scratch: the caller's log or per-list buffer
	out := ids[n0:]
	// The list's Golomb parameter b and its truncated-binary constants:
	// k = ⌈log₂ b⌉, t = 2ᵏ − b; remainders below t take k−1 bits, the
	// rest k (both 0 when b is 1).
	b := compress.GolombParameter(uint64(seqs.Len()), uint64(df))
	k := uint(bits.Len64(b - 1))
	t, km1 := 1<<k-b, max(k, 1)-1
	numSeqs := int64(seqs.Len())
	backing := list[:cap(list)]
	pos, cur, ncur := 0, uint64(0), uint(0)
	prev := int64(-1)
	i := 0
	for {
		for ; i < len(out) && pos+8 <= len(backing); i++ {
			pos, cur, ncur = refill(backing, pos, cur, ncur)
			// Golomb: the quotient in unary, the remainder in truncated
			// binary, then the count's first bit; ncur ≥ 56 holds them.
			// The remainder's shift can be a full 64 (k or k−1 = 0) and
			// is split into 1 + (63 − width).
			q := uint(bits.LeadingZeros64(^cur))
			if q+k >= 54 {
				break
			}
			c := cur << ((q + 1) & 63)
			// The remainder's width without a branch: k−1 bits when they
			// read below t (lt = 1), else k bits less t.
			short := c >> 1 >> ((63 - km1) & 63)
			lt := (short - t) >> 63
			used := k - uint(lt)
			rem := c>>1>>((63-used)&63) - t&(lt-1)
			c <<= used & 63
			id := prev + int64(uint64(q)*b+rem+1)
			if int64(c) < 0 || id >= numSeqs {
				break // a count above 1, or a corrupt gap: the general reader's
			}
			cur = c << 1
			ncur -= q + used + 2
			out[i] = base + uint32(id)
			prev = id
		}
		if i == len(out) {
			break
		}
		// One posting through the general reader, over the list alone.
		var r compress.BitReader
		r.Reset(list)
		r.SetWindow(pos, cur, ncur)
		id, count, err := slowID(&r, b, prev, numSeqs, i)
		if err != nil {
			// The window may hold the backing's bytes past the list; the
			// error is named from the list's own.
			return ids[:n0], counts[:c0], 0, idStreamError(list, df, seqs)
		}
		_, pos, cur, ncur = r.Window()
		out[i] = base + uint32(id)
		if count > 1 {
			out[i] |= Multi
			counts = append(counts, uint32(count)) // amortised scratch, like ids
		}
		prev = id
		i++
	}
	w := window{pos, cur, ncur}
	if w.overran(len(list)) {
		return ids[:n0], counts[:c0], 0, idStreamError(list, df, seqs)
	}
	return ids, counts, w.consumed(), nil
}

// slowID decodes posting i's id gap and count through the general
// reader, whose every code checks that it ends within the list.
func slowID(r *compress.BitReader, b uint64, prev, numSeqs int64, i int) (id int64, count uint64, err error) {
	gap, err := compress.GetGolomb(r, b)
	if err != nil {
		return 0, 0, fmt.Errorf("postings: entry %d id: %w", i, err) // cold corruption path
	}
	// Guard before widening to uint32: a corrupt gap run must surface as
	// an error here, not as an out-of-range id that indexes the coarse
	// accumulators.
	if gap > uint64(numSeqs) || prev+int64(gap) >= numSeqs {
		return 0, 0, fmt.Errorf("postings: entry %d id gap %d runs outside universe %d", i, gap, numSeqs) // cold corruption path
	}
	count, err = compress.GetGamma(r)
	if err != nil {
		return 0, 0, fmt.Errorf("postings: entry %d count: %w", i, err) // cold corruption path
	}
	if count > 1<<31 {
		return 0, 0, fmt.Errorf("postings: entry %d implausible count %d", i, count) // cold corruption path
	}
	return prev + int64(gap), count, nil
}

// idStreamError re-decodes an id stream that failed through the general
// reader alone, over the list's own bytes and zeros past them, to name
// the posting it failed in: the name does not depend on what the
// backing holds past the list.
func idStreamError(list []byte, df int, seqs Seqs) error {
	var r compress.BitReader
	r.Reset(list)
	b := compress.GolombParameter(uint64(seqs.Len()), uint64(df))
	prev := int64(-1)
	for i := 0; i < df; i++ {
		id, _, err := slowID(&r, b, prev, int64(seqs.Len()), i)
		if err != nil {
			return err
		}
		prev = id
	}
	return fmt.Errorf("postings: %w: id stream runs past the end of the list", compress.ErrCorrupt) // cold corruption path
}

// Offsets decodes offsets from list's offset stream, which starts at
// bit from (as IDs returned it). ids is the list's id stream as IDs
// logged it with base, and counts its counts from the list's first
// Multi posting on. want names the postings to decode, ascending
// indexes into ids, or every posting when nil. The walk skips the other
// postings' codes, each with the parameter its id and count give, and
// stops after the last posting named.
//
// For each posting named it appends to dst the posting's one offset,
// or, for a Multi posting, its count and then its offsets. A decoded
// offset at or past its sequence's end is corrupt, as is a walk that
// consumed a bit past the list; a skipped code is not range-checked.
func Offsets(dst []uint32, list []byte, from int64, ids, counts []uint32, base uint32, want []int32, seqs Seqs) ([]uint32, error) {
	end := len(ids)
	if want != nil {
		if len(want) == 0 {
			return dst, nil
		}
		end = int(want[len(want)-1]) + 1
	}
	dst, w, _, err := walk(dst, list, seek(list, from), ids[:end], counts, 0, base, want, seqs)
	if err == nil && w.overran(len(list)) {
		err = fmt.Errorf("postings: %w: offset stream runs past the end of the list", compress.ErrCorrupt) // cold corruption path
	}
	return dst, err
}

// walk decodes or skips the offset codes of postings ids[i:] from the
// window w, as Offsets describes; counts holds the counts of their
// Multi postings, and want, when not nil, names postings at or after i.
// It returns dst, the window after the last posting, how many counts it
// read, and the first error, naming the posting by its index in ids.
func walk(dst []uint32, list []byte, w window, ids, counts []uint32, i int, base uint32, want []int32, seqs Seqs) ([]uint32, window, int, error) {
	backing := list[:cap(list)]
	lens, rice1 := seqs.lens, seqs.rice1
	pos, cur, ncur := w.pos, w.cur, w.ncur
	ci := 0
	for ; i < len(ids); i++ {
		// The one-offset postings before the next one wanted are skipped
		// a code at a time, while their codes fit a refilled window.
		if len(want) > 0 {
			for stop := int(want[0]); i < stop && pos+8 <= len(backing); i++ {
				r := ids[i]
				if r&Multi != 0 {
					break
				}
				pos, cur, ncur = refill(backing, pos, cur, ncur)
				n := uint(bits.LeadingZeros64(^cur)) + 1 + uint(rice1[r-base])
				if n > ncur {
					break
				}
				cur <<= n & 63
				ncur -= n
			}
		}
		take := want == nil
		if len(want) > 0 && int(want[0]) == i {
			take, want = true, want[1:]
		}
		r := ids[i]
		id := r&^Multi - base
		count, k := uint32(1), uint(rice1[id])
		if r&Multi != 0 {
			count = counts[ci]
			ci++
			// A code costs at least one bit, so a count above the bits
			// the list has left is corrupt; rejecting it here bounds the
			// walk by the list's length however long the backing runs.
			if int64(count) > int64(len(list))*8-(window{pos, cur, ncur}).consumed() {
				return dst, window{pos, cur, ncur}, ci, fmt.Errorf("postings: entry %d: %w: count %d exceeds the bits left in the list", i, compress.ErrCorrupt, count) // cold corruption path
			}
			k = offsetParameter(lens[id], uint64(count))
			if take {
				dst = append(dst, count) // amortised scratch: the caller's
			}
		}
		length := int64(lens[id])
		prevOff := int64(-1)
		for j := uint32(0); j < count; j++ {
			if pos+8 <= len(backing) {
				pos, cur, ncur = refill(backing, pos, cur, ncur)
			} else {
				t := refillTail(list, window{pos, cur, ncur})
				pos, cur, ncur = t.pos, t.cur, t.ncur
			}
			gap, n := rice(cur, k)
			if n <= ncur {
				cur <<= n & 63
				ncur -= n
			} else {
				// A code longer than the window: the general reader's.
				var r compress.BitReader
				r.Reset(list)
				r.SetWindow(pos, cur, ncur)
				g, err := compress.GetRice(&r, k)
				if err != nil {
					return dst, window{pos, cur, ncur}, ci, fmt.Errorf("postings: entry %d offset %d: %w", i, j, err) // cold corruption path
				}
				gap = g
				_, pos, cur, ncur = r.Window()
			}
			if !take {
				continue
			}
			// An offset at or past the sequence's end is corrupt, which
			// also keeps it within uint32.
			if gap >= uint64(length-prevOff) {
				return dst, window{pos, cur, ncur}, ci, fmt.Errorf("postings: entry %d offset %d: %w: gap %d runs past sequence %d of length %d", i, j, compress.ErrCorrupt, gap, id, length) // cold corruption path
			}
			prevOff += int64(gap)
			dst = append(dst, uint32(prevOff)) // amortised scratch: the caller's
		}
	}
	return dst, window{pos, cur, ncur}, ci, nil
}

// postingError re-decodes posting i's offsets from the window w through
// the general reader alone, whose every code checks that it ends within
// the list, to name the offset a posting that failed ran out in.
func postingError(list []byte, w window, i int, id, count uint32, seqs Seqs) error {
	var r compress.BitReader
	r.Reset(list)
	r.SetWindow(w.pos, w.cur, w.ncur)
	length := int64(seqs.lens[id])
	k := offsetParameter(seqs.lens[id], uint64(count))
	prevOff := int64(-1)
	for j := uint32(0); j < count; j++ {
		gap, err := compress.GetRice(&r, k)
		if err != nil {
			return fmt.Errorf("postings: entry %d offset %d: %w", i, j, err)
		}
		if gap >= uint64(length-prevOff) {
			return fmt.Errorf("postings: entry %d offset %d: %w: gap %d runs past sequence %d of length %d", i, j, compress.ErrCorrupt, gap, id, length)
		}
		prevOff += int64(gap)
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

// Iterator streams a compressed list entry by entry without allocating
// per entry. The Offsets slice returned by Entry is reused between
// calls to Next. The zero value is an empty iterator.
//
// Its first Next decodes the whole id stream (IDs), so an error there
// surfaces before any entry; each Next then decodes one posting's
// offsets through Offsets' walk.
type Iterator struct {
	list    []byte
	df      int
	seqs    Seqs
	ids     []uint32 // the id stream, decoded by the first Next
	counts  []uint32
	w       window // the offset stream's next posting
	ci      int    // counts' index at that posting
	read    int
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
	it.list, it.df, it.seqs = buf, df, seqs
	it.ids, it.counts = it.ids[:0], it.counts[:0]
	it.w, it.ci, it.read = window{}, 0, 0
	it.cur = Entry{}
	it.err = nil
}

// Fail leaves the iterator empty with err as its error, for a caller
// that could not bring the list in (a paged index whose read failed):
// whoever iterates then sees that failure itself, not a decode error
// over bytes that were never read.
func (it *Iterator) Fail(err error) {
	it.Reset(nil, 0, Seqs{})
	it.err = err
}

// Next advances to the next entry, returning false at the end of the
// list or on error; check Err afterwards.
func (it *Iterator) Next() bool {
	if it.err != nil || it.read >= it.df {
		return false
	}
	if it.read == 0 {
		ids, counts, from, err := IDs(it.ids[:0], it.counts[:0], it.list, it.df, it.seqs, 0)
		it.ids, it.counts = ids, counts
		if err != nil {
			it.err = err
			return false
		}
		it.w = seek(it.list, from)
	}
	i := it.read
	// A one-offset posting whose code fits the refilled window, nearly
	// every posting, is decoded here with walk's refill and code.
	if id := it.ids[i]; id&Multi == 0 && it.w.pos+8 <= cap(it.list) {
		pos, cur, ncur := refill(it.list[:cap(it.list)], it.w.pos, it.w.cur, it.w.ncur)
		gap, n := rice(cur, uint(it.seqs.rice1[id]))
		w := window{pos, cur << (n & 63), ncur - n}
		if n <= ncur && gap <= uint64(it.seqs.lens[id]) && !w.overran(len(it.list)) {
			it.offsets = append(it.offsets[:0], uint32(gap-1)) // amortised scratch, reused across entries
			it.w = w
			it.cur = Entry{ID: id, Count: 1, Offsets: it.offsets}
			it.read++
			return true
		}
	}
	offsets, w, ci, err := walk(it.offsets[:0], it.list, it.w, it.ids[:i+1], it.counts[it.ci:], i, 0, nil, it.seqs)
	it.offsets = offsets
	if err != nil || w.overran(len(it.list)) {
		r := it.ids[i]
		count := uint32(1)
		if r&Multi != 0 {
			count = it.counts[it.ci]
		}
		if named := postingError(it.list, it.w, i, r&^Multi, count, it.seqs); named != nil {
			err = named
		} else if err == nil {
			err = fmt.Errorf("postings: entry %d: %w: runs past the end of the list", i, compress.ErrCorrupt) // cold corruption path
		}
		it.err = err
		return false
	}
	if it.ids[i]&Multi != 0 {
		offsets = offsets[1:]
	}
	it.w, it.ci = w, it.ci+ci
	it.cur = Entry{ID: it.ids[i] &^ Multi, Count: uint32(len(offsets)), Offsets: offsets}
	it.read++
	return true
}

// Entry returns the current entry. Valid after Next returns true; the
// Offsets slice is reused by subsequent Next calls.
func (it *Iterator) Entry() Entry { return it.cur }

// Decoded returns the number of entries decoded since Reset. It equals
// the document frequency once the list is exhausted.
func (it *Iterator) Decoded() int { return it.read }

// Err returns the first decoding error encountered, or the error given
// to Fail, if any.
func (it *Iterator) Err() error { return it.err }

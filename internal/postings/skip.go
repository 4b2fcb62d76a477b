package postings

import (
	"fmt"
	"sort"

	"nucleodb/internal/compress"
)

// Skipped inverted lists ("self-indexing", Moffat & Zobel): a list
// carries a small table of synchronisation points so that a reader can
// jump close to a target sequence id instead of decoding every entry.
// Skips pay off for conjunctive processing — intersecting the lists of
// several query terms — where most entries of the longer lists are
// never needed.
//
// Layout: gamma(number of skips), then per skip the entry index delta,
// id delta and bit-offset delta (all gamma-coded), then the ordinary
// list encoding as produced by Encode. Bit offsets are relative to the
// start of the data section.

// SkippedList is a compressed posting list with a decoded skip table.
type SkippedList struct {
	data        []byte // the Encode-format payload
	skipEntries []int  // entry index at each sync point
	skipIDs     []uint32
	skipBits    []int
	df          int
	numSeqs     int
	withOffsets bool
}

// EncodeSkipped compresses entries with a synchronisation point every
// interval entries (interval ≤ 0 picks √df, the textbook choice).
func EncodeSkipped(entries []Entry, numSeqs int, withOffsets bool, interval int) ([]byte, error) {
	if err := validate(entries, numSeqs, withOffsets); err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = 1
		for interval*interval < len(entries) {
			interval++
		}
	}

	// Encode the payload while recording bit positions of each entry.
	b := compress.GolombParameter(uint64(numSeqs), uint64(len(entries)))
	w := compress.NewBitWriter(len(entries) * 2)
	type sync struct {
		entry int
		id    uint32
		bit   int
	}
	var syncs []sync
	prev := int64(-1)
	for i, e := range entries {
		if i > 0 && i%interval == 0 {
			syncs = append(syncs, sync{entry: i, id: uint32(prev), bit: w.BitLen()})
		}
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
	data := w.Bytes()

	// Header: the skip table.
	hw := compress.NewBitWriter(len(syncs) + 4)
	compress.PutGamma(hw, uint64(len(syncs))+1)
	prevEntry, prevID, prevBit := 0, int64(-1), 0
	for _, s := range syncs {
		compress.PutGamma(hw, uint64(s.entry-prevEntry))
		compress.PutGamma(hw, uint64(int64(s.id)-prevID))
		compress.PutGamma(hw, uint64(s.bit-prevBit)+1)
		prevEntry, prevID, prevBit = s.entry, int64(s.id), s.bit
	}
	header := hw.Bytes()

	out := make([]byte, 0, len(header)+len(data)+4)
	out = compress.PutVByte(out, uint64(len(header)))
	out = append(out, header...)
	out = append(out, data...)
	return out, nil
}

// OpenSkipped parses a skipped list for iteration. df, numSeqs and
// withOffsets must match the encoding call, as with Decode.
func OpenSkipped(buf []byte, df, numSeqs int, withOffsets bool) (*SkippedList, error) {
	if df == 0 {
		return &SkippedList{}, nil
	}
	hlen, n, err := compress.GetVByte(buf)
	if err != nil {
		return nil, fmt.Errorf("postings: skip header length: %w", err)
	}
	if uint64(len(buf)-n) < hlen {
		return nil, fmt.Errorf("%w: truncated skip header", compress.ErrCorrupt)
	}
	header := buf[n : n+int(hlen)]
	data := buf[n+int(hlen):]

	r := compress.NewBitReader(header)
	count, err := compress.GetGamma(r)
	if err != nil {
		return nil, fmt.Errorf("postings: skip count: %w", err)
	}
	count--
	if count > uint64(df) {
		return nil, fmt.Errorf("%w: %d skips for df %d", compress.ErrCorrupt, count, df)
	}
	sl := &SkippedList{
		data:        data,
		df:          df,
		numSeqs:     numSeqs,
		withOffsets: withOffsets,
	}
	dataBits := len(data) * 8
	prevEntry, prevID, prevBit := 0, int64(-1), 0
	for i := uint64(0); i < count; i++ {
		de, err := compress.GetGamma(r)
		if err != nil {
			return nil, fmt.Errorf("postings: skip entry: %w", err)
		}
		di, err := compress.GetGamma(r)
		if err != nil {
			return nil, fmt.Errorf("postings: skip id: %w", err)
		}
		db, err := compress.GetGamma(r)
		if err != nil {
			return nil, fmt.Errorf("postings: skip bit: %w", err)
		}
		// Bound each gamma delta before the int conversions: a corrupt
		// header must not overflow the accumulators or place a sync point
		// outside the data section, where SeekGE would slice past the end.
		if de > uint64(df) || di > uint64(numSeqs) || db > uint64(dataBits)+1 {
			return nil, fmt.Errorf("%w: skip delta out of range", compress.ErrCorrupt)
		}
		prevEntry += int(de)
		prevID += int64(di)
		prevBit += int(db) - 1
		if prevEntry >= df || prevID >= int64(numSeqs) || prevBit < 0 || prevBit >= dataBits {
			return nil, fmt.Errorf("%w: skip point beyond list", compress.ErrCorrupt)
		}
		sl.skipEntries = append(sl.skipEntries, prevEntry)
		sl.skipIDs = append(sl.skipIDs, uint32(prevID))
		sl.skipBits = append(sl.skipBits, prevBit)
	}
	return sl, nil
}

// DF returns the list's document frequency.
func (sl *SkippedList) DF() int { return sl.df }

// SkipIterator iterates a skipped list with SeekGE support.
type SkipIterator struct {
	list *SkippedList
	it   Iterator
	// consumed tracks how many entries the underlying iterator has
	// produced relative to the whole list.
	consumed int
	// base adjustments after a jump.
	baseEntry int
}

// Iter returns an iterator positioned before the first entry.
func (sl *SkippedList) Iter() *SkipIterator {
	si := &SkipIterator{list: sl}
	si.reset(0, -1, 0)
	return si
}

// reset positions the underlying iterator at a sync point.
func (si *SkipIterator) reset(entry int, prevID int64, bitPos int) {
	sl := si.list
	if sl.df == 0 {
		si.it.Reset(nil, 0, 1, false)
		return
	}
	// Sync bit offsets are arbitrary, so enter at the byte containing
	// bitPos and discard the bit remainder. The Golomb parameter is the
	// whole list's; only the entry count shrinks.
	si.it.reset(sl.data[bitPos/8:], sl.df, sl.df-entry, sl.numSeqs, sl.withOffsets)
	si.it.skipBits(uint(bitPos % 8))
	si.it.prev = prevID
	si.baseEntry = entry
	si.consumed = entry
}

// Next advances and reports whether an entry is available.
func (si *SkipIterator) Next() bool {
	if si.it.Next() {
		si.consumed++
		return true
	}
	return false
}

// Entry returns the current entry (valid after Next returns true).
func (si *SkipIterator) Entry() Entry { return si.it.Entry() }

// Err returns the first decode error.
func (si *SkipIterator) Err() error { return si.it.Err() }

// SeekGE advances to the first entry with ID ≥ target, using the skip
// table to jump over runs, and reports whether such an entry exists.
// After SeekGE returns true, Entry is valid. Seeking backwards is not
// supported; targets must be non-decreasing across calls.
func (si *SkipIterator) SeekGE(target uint32) bool {
	sl := si.list
	if sl.df == 0 {
		return false
	}
	// Use the skip table if it can jump past the current position.
	k := sort.Search(len(sl.skipIDs), func(i int) bool { return sl.skipIDs[i] >= target })
	// skipIDs[k-1] < target: entry index skipEntries[k-1] is the last
	// entry known to be < target... (ids at sync points are the id of
	// the entry *before* the sync). Jump there if ahead of us.
	if k > 0 && sl.skipEntries[k-1] > si.consumed {
		si.reset(sl.skipEntries[k-1], int64(sl.skipIDs[k-1]), sl.skipBits[k-1])
	}
	// Linear scan the remainder.
	if si.consumed > si.baseEntry {
		// An entry is already loaded; check it first.
		if si.it.cur.ID >= target {
			return true
		}
	}
	for si.Next() {
		if si.Entry().ID >= target {
			return true
		}
	}
	return false
}

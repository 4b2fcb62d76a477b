package core

import (
	"fmt"
	"math"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// The seed hand-over, the one source of a candidate's seed. The index
// is built with the same interval coder over the same store codes the
// fine phase aligns, so a candidate's postings under the query's terms
// hold exactly the (query position, subject position) pairs the two
// share, less those of stopped terms, which have no list. A list keeps
// its postings' ids apart from their offsets (package postings), so the
// coarse walk decodes ids only, straight into a flat log; after top-k
// the hand-over visits each logged list that holds an admitted
// candidate, walks its offset stream to its last admitted posting —
// skipping the other postings' codes — and buckets the admitted
// postings' offsets by candidate, from which each candidate's seed is
// read.
//
// The log is flat rather than chained per sequence: a chain costs the
// walk a read and a write of the sequence's chain head per posting,
// which measured more than the one filtered pass it saves (EXPERIMENTS
// E21).
//
// The log has no cap. A walk decodes each distinct term's list once per
// segment, so it logs at most one 4-byte word per posting in the index,
// plus 4 bytes for the count of each posting with several offsets, and
// keeps every list it logged readable until the hand-over: a slice of
// the in-memory blob, or a copy in the searcher's arena under a paged
// index. A 2 000-base query on a 16 Mbase collection logs ≈ 110 k
// words; a query spanning the whole vocabulary would log every posting:
// ≈ 63 MB on the benchmark collection, plus the arena (the whole
// postings blob, under a paged index). The hand-over adds only the
// admitted candidates' offsets. Past 2³¹ logged postings, or offsets
// handed over, the walk fails (maxLogIndex).

// maxPooledSeedLog caps the words a searcher keeps in each of the log's
// arrays between queries (1 MiB each); a larger log is dropped after its
// hand-over, so one huge query does not pin its log in every pooled
// searcher.
const maxPooledSeedLog = 1 << 18

// maxPooledArena caps the bytes of paged lists a searcher keeps between
// queries (1 MiB), for the same reason.
const maxPooledArena = 1 << 20

// multiOffsets flags a bucketed posting whose off field indexes its
// offset count in seedLog.offs, which its offsets follow. Offsets are
// below it: a subject's length is an int32.
const multiOffsets = 1 << 31

// maxLogIndex is the largest posting and offset index the log's 31-bit
// fields hold (loggedList.start, a multiOffsets posting's off). A walk
// that would log past it fails with an internal error rather than
// wrap; only a query whose lists hold more than 2³¹ postings, or whose
// admitted candidates' postings hold more than 2³¹ offsets, reaches it.
// A variable so that tests can reach it.
var maxLogIndex = math.MaxInt32

// logOverflow is the walk's error when term's list would pass
// maxLogIndex, with ids postings and offs offsets logged.
func logOverflow(ids, offs int, term kmer.Term) error {
	return fmt.Errorf("core: seed log of %d postings and %d offsets cannot index term %d's postings: the query's lists pass 2³¹", ids, offs, term)
}

// loggedList is one posting list of the log: the list itself, the bit
// where its offset stream starts, where its ids and its side counts
// start in the log, the run [lo, hi) of its term in the searcher's term
// array, and its segment.
type loggedList struct {
	list          []byte
	bit           int64
	start, counts int32
	lo, hi        int32
	seg           int32
}

// candPosting is one admitted candidate's logged posting, as the
// hand-over buckets it: its one offset, or with multiOffsets set the
// index of its offsets in seedLog.offs; and its list.
type candPosting struct {
	off  uint32
	list int32
}

// seedLog is the coarse walk's record of the postings it decoded, and
// the scratch of the hand-over that reads it back. It is written by the
// walk and read by the hand-over; the fine phase sees only the seeds it
// writes into the candidates' records.
type seedLog struct {
	// ids holds one word per logged posting: its sequence's global id,
	// with postings.Multi set when it has several offsets, whose count
	// is next in counts. Query-lifetime, truncated at the start of each
	// logging walk, like counts and lists.
	ids    []uint32
	counts []uint32
	lists  []loggedList // one per logged list, in walk order
	// segs holds each segment's universe and first global id, by the
	// segment's index in the searcher.
	segs []logSegment

	// candOf maps a global id to its admitted candidate's index + 1
	// during a hand-over, and is all zero otherwise.
	candOf []int32
	// want and offs are one hand-over's scratch: the admitted postings
	// of the list being walked, and the offsets of every admitted
	// posting, a multi-offset posting's after its count.
	want []int32
	offs []uint32
	// postings buckets the admitted postings by candidate.
	postings [][]candPosting // one bucket per admitted candidate, refilled by each hand-over
	// count and first are indexed by diagonal + query length: the hits
	// on each diagonal and the smallest subject position among them.
	// Only the diagonals listed in diags are live; the hand-over zeroes
	// their counts after each candidate.
	count []int32
	first []uint32
	diags []int32
}

// logSegment is what the hand-over needs of a segment to read its lists'
// offsets.
type logSegment struct {
	seqs postings.Seqs
	base uint32
}

// reset empties the log for a new walk.
func (l *seedLog) reset() {
	l.ids, l.counts, l.lists = l.ids[:0], l.counts[:0], l.lists[:0]
}

// handOver sets each admitted candidate's record's seed and, with
// centre set, its band centre to the seed's diagonal. For each logged
// list it finds the admitted postings among the list's ids, reads their
// offsets (postings.Offsets) into buckets by candidate, and then reads
// each bucket's seed. A list whose offsets fail to decode fails the
// hand-over. It drops backing over maxPooledSeedLog afterwards.
func (l *seedLog) handOver(recs []candRec, terms []queryTerm, qlen int, centre bool) error {
	for i, r := range recs {
		l.candOf[r.id] = int32(i + 1)
	}
	for len(l.postings) < len(recs) {
		l.postings = append(l.postings, nil) // grows once to the candidate budget
	}
	buckets := l.postings[:len(recs)]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	var err error
	l.offs, err = l.bucket(l.offs[:0], buckets, terms)
	for i := range recs {
		r := &recs[i]
		l.candOf[r.id] = 0
		if err != nil {
			continue
		}
		r.seed = l.seed(buckets[i], terms, qlen)
		if centre {
			r.centre = r.seed.diag
		}
	}
	kept := 0
	for _, b := range l.postings {
		kept += cap(b)
	}
	if kept > maxPooledSeedLog {
		l.postings = nil
	}
	if cap(l.ids) > maxPooledSeedLog || cap(l.counts) > maxPooledSeedLog {
		l.ids, l.counts, l.lists, l.want = nil, nil, nil, nil
	}
	if cap(l.offs) > maxPooledSeedLog {
		l.offs = nil
	}
	if len(l.count) > maxPooledSeedLog {
		l.count, l.first, l.diags = nil, nil, nil
	}
	return err
}

// bucket reads the admitted postings' offsets, list by list, onto
// offs, and buckets the postings, candidate i's in buckets[i]. It
// returns offs.
func (l *seedLog) bucket(offs []uint32, buckets [][]candPosting, terms []queryTerm) ([]uint32, error) {
	for j, ls := range l.lists {
		end := len(l.ids)
		if j+1 < len(l.lists) {
			end = int(l.lists[j+1].start)
		}
		ids := l.ids[ls.start:end]
		want := l.want[:0]
		for i, r := range ids {
			if l.candOf[r&^postings.Multi] != 0 {
				want = append(want, int32(i)) // amortised scratch; stabilises at the high-water mark across queries
			}
		}
		l.want = want
		if len(want) == 0 {
			continue
		}
		sg := l.segs[ls.seg]
		p := len(offs)
		var err error
		if offs, err = postings.Offsets(offs, ls.list, ls.bit, ids, l.counts[ls.counts:], sg.base, want, sg.seqs); err != nil {
			return offs, fmt.Errorf("core: term %d postings: %w", terms[ls.lo].term(), err)
		}
		if len(offs) > maxLogIndex {
			return offs, logOverflow(len(l.ids), len(offs), terms[ls.lo].term())
		}
		for _, i := range want {
			r := ids[i]
			cp := candPosting{off: offs[p], list: int32(j)}
			if r&postings.Multi != 0 {
				cp.off = multiOffsets | uint32(p)
				p += int(offs[p])
			}
			p++
			ci := l.candOf[r&^postings.Multi] - 1
			buckets[ci] = append(buckets[ci], cp) // amortised scratch; stabilises at the high-water mark across queries
		}
	}
	return offs, nil
}

// seed returns the seed of the sequence whose postings are ps: the
// diagonal with the most shared intervals (ties to the smaller
// diagonal) and its hit at the smallest subject position. terms is the
// walk's term array and qlen the query length. An admitted candidate
// has at least one posting, so it always has a seed.
func (l *seedLog) seed(ps []candPosting, terms []queryTerm, qlen int) seedHit {
	var one [1]uint32
	for _, p := range ps {
		offs := one[:]
		if p.off&multiOffsets == 0 {
			one[0] = p.off
		} else {
			i := p.off &^ multiOffsets
			offs = l.offs[i+1 : i+1+l.offs[i]]
		}
		r := l.lists[p.list]
		for _, qt := range terms[r.lo:r.hi] {
			bias := qlen - qt.pos()
			for _, off := range offs {
				i := int(off) + bias
				if i >= len(l.count) {
					l.grow(i + 1)
				}
				if l.count[i] == 0 {
					l.diags = append(l.diags, int32(i)) // amortised scratch; stabilises at the high-water mark across candidates
					l.first[i] = off
				} else if off < l.first[i] {
					l.first[i] = off
				}
				l.count[i]++
			}
		}
	}
	best, bestI := int32(0), 0
	for _, i := range l.diags {
		if n := l.count[i]; n > best || n == best && int(i) < bestI {
			best, bestI = n, int(i)
		}
		l.count[i] = 0
	}
	l.diags = l.diags[:0]
	d := bestI - qlen
	sPos := int(l.first[bestI])
	return seedHit{diag: d, qPos: sPos - d, sPos: sPos}
}

// grow extends the diagonal arrays to at least n entries, keeping the
// live ones.
func (l *seedLog) grow(n int) {
	n = max(n, 2*len(l.count))
	count := make([]int32, n)  // grows to the high-water query plus subject length
	first := make([]uint32, n) // grows with count
	copy(count, l.count)
	copy(first, l.first)
	l.count, l.first = count, first
}

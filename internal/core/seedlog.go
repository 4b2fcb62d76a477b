package core

import (
	"fmt"
	"math"

	"nucleodb/internal/kmer"
)

// The seed hand-over, the one source of a candidate's seed. The index
// is built with the same interval coder over the same store codes the
// fine phase aligns, so a candidate's postings under the query's terms
// hold exactly the (query position, subject position) pairs the two
// share, less those of stopped terms, which have no list. The coarse
// walk decodes those offsets anyway; it appends each posting to a flat
// log, and after top-k one pass over the log buckets the admitted
// candidates' postings, from which each candidate's seed is read.
//
// The log is flat rather than chained per sequence: a chain costs the
// walk a read and a write of the sequence's chain head per posting,
// which measured more than the one filtered pass it saves (EXPERIMENTS
// E21).
//
// The log has no cap. A walk decodes each distinct term's list once per
// segment, so it logs at most one 8-byte record per posting in the
// index, and a posting with several offsets adds 4 bytes for its count
// and 4 per offset to the side array. A 2 000-base query on a 16 Mbase
// collection logs ≈ 110 k records, and a query spanning the whole
// vocabulary would log every posting and offset: ≈ 126 MB on the
// benchmark collection, where 99.5 % of postings have one offset, but
// about 4 bytes per indexed base on a few long sequences, such as a
// genome's chromosomes, where nearly every posting has many (≈ 90 MB
// for a 2 000-base query at 3 Gbase). Past 2³¹ records or offsets the
// walk fails (maxLogIndex).

// maxPooledSeedLog caps the records a searcher keeps between queries
// (2 MiB); a larger log is dropped after its hand-over, so one huge
// query does not pin its log in every pooled searcher.
const maxPooledSeedLog = 1 << 18

// seedRec is one logged posting: its sequence's global id and its
// offsets. Which list it came from, and so the query positions of its
// term, is the logged list whose records span it.
type seedRec struct {
	id uint32
	// off is the posting's one offset or, with multiOffsets set, the
	// index in seedLog.offs of its offset count, which its offsets follow.
	off uint32
}

// multiOffsets flags a record whose posting has several offsets. Offsets
// are below it: a subject's length is an int32.
const multiOffsets = 1 << 31

// maxLogIndex is the largest record and offset index the log's 31-bit
// fields hold (loggedList.start, a multiOffsets record's off). A walk
// that would log past it fails with an internal error rather than
// wrap; only a query whose lists hold more than 2³¹ postings or
// offsets reaches it. A variable so that tests can reach it.
var maxLogIndex = math.MaxInt32

// logOverflow is the walk's error when term's list would pass
// maxLogIndex, with recs records and offs offsets logged.
func logOverflow(recs, offs int, term kmer.Term) error {
	return fmt.Errorf("core: seed log of %d postings and %d offsets cannot index term %d's postings: the query's lists pass 2³¹", recs, offs, term)
}

// loggedList is one posting list of the log: where its records start,
// and the run [lo, hi) of its term in the searcher's term array.
type loggedList struct{ start, lo, hi int32 }

// candPosting is one admitted candidate's logged posting, as the
// hand-over buckets it: the record's off field and its list.
type candPosting struct {
	off  uint32
	list int32
}

// seedLog is the coarse walk's record of the postings it decoded, and
// the scratch of the hand-over that reads it back. It is written by the
// walk and read by the hand-over; the fine phase sees only the seeds it
// writes into the candidates' records.
type seedLog struct {
	recs  []seedRec    // query-lifetime log, truncated at the start of each logging walk
	offs  []uint32     // offsets of the logged postings that have several
	lists []loggedList // one per logged list, in walk order

	// candOf maps a global id to its admitted candidate's index + 1
	// during a hand-over, and is all zero otherwise.
	candOf []int32
	// postings buckets the log's postings by admitted candidate.
	postings [][]candPosting // one bucket per admitted candidate, refilled by each hand-over
	// count and first are indexed by diagonal + query length: the hits
	// on each diagonal and the smallest subject position among them.
	// Only the diagonals listed in diags are live; the hand-over zeroes
	// their counts after each candidate.
	count []int32
	first []uint32
	diags []int32
}

// reset empties the log for a new walk.
func (l *seedLog) reset() {
	l.recs, l.offs, l.lists = l.recs[:0], l.offs[:0], l.lists[:0]
}

// handOver sets each admitted candidate's record's seed and, with
// centre set, its band centre to the seed's diagonal. One pass over the
// log buckets the candidates' postings; each bucket then yields its
// seed. It drops backing over maxPooledSeedLog afterwards.
func (l *seedLog) handOver(recs []candRec, terms []queryTerm, qlen int, centre bool) {
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
	for j, ls := range l.lists {
		end := len(l.recs)
		if j+1 < len(l.lists) {
			end = int(l.lists[j+1].start)
		}
		for _, r := range l.recs[ls.start:end] {
			if ci := l.candOf[r.id]; ci != 0 {
				buckets[ci-1] = append(buckets[ci-1], candPosting{r.off, int32(j)}) // amortised scratch; stabilises at the high-water mark across queries
			}
		}
	}
	for i := range recs {
		r := &recs[i]
		l.candOf[r.id] = 0
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
	if cap(l.recs) > maxPooledSeedLog {
		l.recs, l.lists = nil, nil
	}
	if cap(l.offs) > maxPooledSeedLog {
		l.offs = nil
	}
	if len(l.count) > maxPooledSeedLog {
		l.count, l.first, l.diags = nil, nil, nil
	}
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

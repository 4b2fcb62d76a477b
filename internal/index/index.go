// Package index implements the inverted interval index: a lexicon
// mapping each interval term to its compressed posting list, the
// two-pass build pipeline that constructs it from a sequence store, and
// an on-disk format. Index stopping — discarding the most frequent
// intervals, which carry little discriminating power but account for a
// disproportionate share of index size and query cost — is applied at
// build time.
package index

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// Source supplies the sequences to index. *db.Store satisfies it.
type Source interface {
	// Len returns the number of sequences.
	Len() int
	// Sequence returns sequence i in code form.
	Sequence(i int) []byte
}

// Options configures an index build.
type Options struct {
	// K is the interval length, in [1, kmer.MaxK]. The paper's
	// experiments centre on lengths around 8–12.
	K int
	// StoreOffsets is kept for source compatibility. Every posting
	// stores its in-sequence offsets, and Build and Load record the
	// field as true.
	//
	// Deprecated: offsets are always stored; ignored.
	StoreOffsets bool
	// StopFraction is the fraction of distinct terms, most frequent
	// first, to discard from the index ("index stopping"). 0 keeps
	// everything.
	StopFraction float64
	// SpacedMask, when non-empty, indexes spaced seeds instead of
	// contiguous intervals: the mask's '1' positions (e.g.
	// "1110100101") are sampled from each window. K is ignored in
	// favour of the mask's weight. Spaced seeds trade a slightly
	// larger window for markedly better sensitivity to diverged
	// homologies (PatternHunter).
	SpacedMask string
	// Workers bounds build parallelism for the list-encoding phase.
	// 0 uses GOMAXPROCS; 1 forces a serial build. Output is identical
	// regardless of the worker count.
	Workers int
}

// DefaultOptions returns the configuration used by the headline
// experiments: 9-base intervals, offsets stored, no stopping.
func DefaultOptions() Options {
	return Options{K: 9}
}

// MaxK is the longest indexable interval. The build pipeline and the
// term statistics use dense arrays over the 4^K vocabulary, which is
// practical up to K = 12 (about 134 MB of transient build state).
const MaxK = 12

// coder constructs the interval coder the options select.
func (o Options) coder() (*kmer.Coder, error) {
	if o.SpacedMask != "" {
		return kmer.NewSpacedCoder(o.SpacedMask)
	}
	return kmer.NewCoder(o.K)
}

func (o Options) validate() error {
	if o.SpacedMask != "" {
		c, err := o.coder()
		if err != nil {
			return fmt.Errorf("index: %w", err)
		}
		if c.K() > MaxK {
			return fmt.Errorf("index: spaced mask weight %d above %d", c.K(), MaxK)
		}
	} else if o.K < 1 || o.K > MaxK {
		return fmt.Errorf("index: interval length %d outside [1,%d]", o.K, MaxK)
	}
	if o.StopFraction < 0 || o.StopFraction > 1 {
		return fmt.Errorf("index: stop fraction %v outside [0,1]", o.StopFraction)
	}
	if o.Workers < 0 {
		return fmt.Errorf("index: negative worker count %d", o.Workers)
	}
	return nil
}

// Index is an immutable inverted interval index over a sequence store.
type Index struct {
	opts    Options
	coder   *kmer.Coder
	seqLens []int32
	// seqs is the universe the lists are coded against, derived from
	// seqLens wherever an Index is made (Build, Load, OpenDisk)
	// and never stored.
	seqs postings.Seqs

	// Lexicon: parallel arrays sorted by term. A term absent from
	// these arrays either never occurs or was stopped.
	terms []uint64
	dfs   []uint32
	ends  []uint64 // list i is blob[ends[i-1]:ends[i]] (from 0 for the first)

	blob []byte

	stopped []uint64 // sorted stopped terms

	// Disk-backed access (see OpenDisk): when fetch is non-nil, blob
	// is empty and list bytes are read on demand, into dst when it is
	// long enough (the caller's reusable buffer) and a fresh slice
	// otherwise.
	fetch   func(off uint64, n uint32, dst []byte) ([]byte, error)
	blobLen int
	closer  interface{ Close() error }
}

// Build constructs an index over src.
//
// The pipeline is two passes over the collection: the first counts term
// frequencies (sizing the posting buckets exactly and selecting the
// stop set), the second distributes occurrences into the buckets in
// (sequence, offset) order so each list can be compressed directly.
func Build(src Source, opts Options) (*Index, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	coder, err := opts.coder()
	if err != nil {
		return nil, err
	}
	opts.K = coder.K()       // normalise: spaced masks define K by weight
	opts.StoreOffsets = true // every list stores offsets
	numSeqs := src.Len()

	// Pass 1: term frequencies and sequence lengths.
	stats := kmer.NewStats(coder)
	seqLens := make([]int32, numSeqs)
	for id := 0; id < numSeqs; id++ {
		seq := src.Sequence(id)
		seqLens[id] = int32(len(seq))
		stats.Add(seq)
	}

	stopSet := stats.TopFraction(opts.StopFraction)
	stopped := make([]uint64, 0, len(stopSet))
	for t := range stopSet {
		stopped = append(stopped, uint64(t))
	}
	sort.Slice(stopped, func(i, j int) bool { return stopped[i] < stopped[j] })

	// Bucket sizing: prefix sums of per-term occurrence counts,
	// excluding stopped terms.
	numTerms := coder.NumTerms()
	starts := make([]uint64, numTerms+1)
	for t := uint64(0); t < numTerms; t++ {
		c := uint64(stats.Count(kmer.Term(t)))
		if stopSet[kmer.Term(t)] {
			c = 0
		}
		starts[t+1] = starts[t] + c
	}
	totalOcc := starts[numTerms]

	// Pass 2: distribute occurrences. Each element packs
	// (sequence id << 32 | offset); filling in scan order keeps each
	// bucket sorted by (id, offset).
	occ := make([]uint64, totalOcc)
	fill := make([]uint64, numTerms)
	copy(fill, starts[:numTerms])
	for id := 0; id < numSeqs; id++ {
		seq := src.Sequence(id)
		sid := uint64(id) << 32
		coder.ExtractFunc(seq, func(pos int, t kmer.Term) {
			if stopSet[t] {
				return
			}
			occ[fill[t]] = sid | uint64(uint32(pos))
			fill[t]++
		})
	}

	// Encode each non-empty bucket as a compressed posting list,
	// sharding the term space across workers; shards are merged in
	// term order so the result is identical at any parallelism.
	idx := &Index{
		opts:    opts,
		coder:   coder,
		seqLens: seqLens,
		seqs:    postings.NewSeqs(seqLens),
		stopped: stopped,
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > int(numTerms) {
		workers = int(numTerms)
	}
	shards := make([]encodeShard, workers)
	var wg sync.WaitGroup
	for wi := 0; wi < workers; wi++ {
		lo := numTerms * uint64(wi) / uint64(workers)
		hi := numTerms * uint64(wi+1) / uint64(workers)
		wg.Add(1)
		go func(sh *encodeShard, lo, hi uint64) {
			defer wg.Done()
			sh.err = sh.encodeRange(occ, starts, lo, hi, idx.seqs, opts)
		}(&shards[wi], lo, hi)
	}
	wg.Wait()
	for _, sh := range shards {
		if sh.err != nil {
			return nil, sh.err
		}
	}
	total := 0
	terms := 0
	for _, sh := range shards {
		total += len(sh.blob)
		terms += len(sh.terms)
	}
	idx.terms = make([]uint64, 0, terms)
	idx.dfs = make([]uint32, 0, terms)
	idx.ends = make([]uint64, 0, terms)
	idx.blob = make([]byte, 0, total)
	for _, sh := range shards {
		end := uint64(len(idx.blob))
		idx.terms = append(idx.terms, sh.terms...)
		idx.dfs = append(idx.dfs, sh.dfs...)
		for _, l := range sh.lens {
			end += uint64(l)
			idx.ends = append(idx.ends, end)
		}
		idx.blob = append(idx.blob, sh.blob...)
	}
	return idx, nil
}

// encodeShard accumulates one worker's contiguous term range.
type encodeShard struct {
	terms []uint64
	dfs   []uint32
	lens  []uint32
	blob  []byte
	err   error
}

// encodeRange encodes every non-empty bucket in [lo, hi).
func (sh *encodeShard) encodeRange(occ, starts []uint64, lo, hi uint64, seqs postings.Seqs, opts Options) error {
	var entries []postings.Entry
	for t := lo; t < hi; t++ {
		bucket := occ[starts[t]:starts[t+1]]
		if len(bucket) == 0 {
			continue
		}
		entries = entries[:0]
		for _, packed := range bucket {
			id := uint32(packed >> 32)
			off := uint32(packed)
			if n := len(entries); n > 0 && entries[n-1].ID == id {
				entries[n-1].Count++
				entries[n-1].Offsets = append(entries[n-1].Offsets, off)
				continue
			}
			entries = append(entries, postings.Entry{ID: id, Count: 1, Offsets: []uint32{off}})
		}
		buf, err := postings.Encode(entries, seqs)
		if err != nil {
			return fmt.Errorf("index: term %d: %w", t, err)
		}
		sh.terms = append(sh.terms, t)
		sh.dfs = append(sh.dfs, uint32(len(entries)))
		sh.lens = append(sh.lens, uint32(len(buf)))
		sh.blob = append(sh.blob, buf...)
	}
	return nil
}

// Options returns the build options of the index.
func (x *Index) Options() Options { return x.opts }

// K returns the interval length.
func (x *Index) K() int { return x.opts.K }

// Coder returns the interval coder matching the index's interval length.
func (x *Index) Coder() *kmer.Coder { return x.coder }

// NumSeqs returns the number of indexed sequences.
func (x *Index) NumSeqs() int { return x.seqs.Len() }

// SeqLen returns the length in bases of sequence id.
func (x *Index) SeqLen(id int) int { return int(x.seqLens[id]) }

// NumTermsIndexed returns the number of distinct terms with posting
// lists (after stopping).
func (x *Index) NumTermsIndexed() int { return len(x.terms) }

// NumStopped returns the number of stopped terms.
func (x *Index) NumStopped() int { return len(x.stopped) }

// PostingsBytes returns the size of the compressed posting data.
func (x *Index) PostingsBytes() int {
	if x.fetch != nil {
		return x.blobLen
	}
	return len(x.blob)
}

// listSpan returns the blob offset and byte length of lexicon slot i.
func (x *Index) listSpan(i int) (off uint64, n uint32) {
	if i > 0 {
		off = x.ends[i-1]
	}
	return off, uint32(x.ends[i] - off)
}

// listBytes returns the raw encoded bytes of lexicon slot i, from
// memory or disk. A disk read lands in dst when dst can hold it, so a
// caller that is done with one list before it asks for the next pays no
// allocation per list; nil always gets a fresh slice.
func (x *Index) listBytes(i int, dst []byte) ([]byte, error) {
	off, n := x.listSpan(i)
	if x.fetch != nil {
		return x.fetch(off, n, dst)
	}
	return x.blob[off : off+uint64(n)], nil
}

// TotalPostings returns the number of (term, sequence) postings across
// all lists — what an uncompressed inverted file would store one record
// per.
func (x *Index) TotalPostings() int {
	n := 0
	for _, df := range x.dfs {
		n += int(df)
	}
	return n
}

// Terms calls fn for every indexed term in ascending order.
func (x *Index) Terms(fn func(t kmer.Term, df int)) {
	for i, t := range x.terms {
		fn(kmer.Term(t), int(x.dfs[i]))
	}
}

// LexiconBytes returns the in-memory size of the lexicon arrays.
func (x *Index) LexiconBytes() int {
	return len(x.terms)*8 + len(x.dfs)*4 + len(x.ends)*8
}

// SizeBytes returns the total index size: lexicon, postings, stop list
// and sequence-length table. For a disk-opened index the postings
// component is the on-disk blob size, not resident memory.
func (x *Index) SizeBytes() int {
	return x.LexiconBytes() + x.PostingsBytes() + len(x.stopped)*8 + len(x.seqLens)*4
}

// lookup returns the lexicon slot of term t, or -1.
func (x *Index) lookup(t kmer.Term) int {
	i := sort.Search(len(x.terms), func(i int) bool { return x.terms[i] >= uint64(t) })
	if i < len(x.terms) && x.terms[i] == uint64(t) {
		return i
	}
	return -1
}

// seek returns the first lexicon slot at or after from whose term is
// ≥ t (len(x.terms) when there is none), for a caller whose terms only
// ascend. Lexicon terms are distinct ascending integers, so the slot
// lies at most t − terms[from] slots ahead — exactly there when every
// term in between is indexed, which a full lexicon (k ≤ 9 on any sizeable
// collection) makes the common case: one probe. Otherwise it gallops
// forward from from — 1, 2, 4, … slots, never past that bound — and
// binary-searches the last stride, so the probes stay next to the
// previous hit instead of restarting from the middle of the lexicon.
func (x *Index) seek(t kmer.Term, from int) int {
	terms, key := x.terms, uint64(t)
	if from >= len(terms) || terms[from] >= key {
		return from
	}
	end := len(terms) // terms[end] ≥ key, or end is the end
	if d := key - terms[from]; d < uint64(end-from) {
		end = from + int(d)
		if terms[end] == key {
			return end
		}
	}
	lo, step := from, 1 // terms[lo] < key throughout
	for lo+step < end && terms[lo+step] < key {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, end)
	for lo+1 < hi {
		if mid := int(uint(lo+hi) >> 1); terms[mid] < key {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// DF returns the document frequency (number of sequences containing)
// of term t, 0 if unindexed or stopped.
func (x *Index) DF(t kmer.Term) int {
	if i := x.lookup(t); i >= 0 {
		return int(x.dfs[i])
	}
	return 0
}

// Stopped reports whether term t was discarded by index stopping.
func (x *Index) Stopped(t kmer.Term) bool {
	i := sort.Search(len(x.stopped), func(i int) bool { return x.stopped[i] >= uint64(t) })
	return i < len(x.stopped) && x.stopped[i] == uint64(t)
}

// ReaderStats positions it over the posting list of term t and returns
// the document frequency (0 when the term has no list; the iterator is
// then empty) and the compressed byte size of the list handed to the
// iterator — the I/O cost the query-pipeline stats account for, free to
// report here because the buffer is already in hand. bytes is what a
// paged index read from disk for this term (zero for absent terms). The
// iterator is owned by the caller and may be reused across terms.
func (x *Index) ReaderStats(t kmer.Term, it *postings.Iterator) (df, bytes int) {
	return x.readSlot(x.lookup(t), it)
}

// ListFrom returns the posting list of term t and its document
// frequency (a nil list and 0 when t has none), for a caller that asks
// for its terms in ascending order, as the coarse walk does: the lexicon
// search resumes at slot from — the next value the previous call
// returned, 0 before the first — so the walk is a merge-join of the
// query's sorted terms against the sorted lexicon, and lists are read in
// ascending blob offset (sequentially, on a paged index).
//
// An in-memory index returns a slice of its blob and arena as it was. A
// paged index reads the list from disk onto the end of arena, followed
// by postings.Slack zero bytes, and returns the grown arena; a list it
// returned stays valid while the caller does not write over that part
// of the arena. Either way the list's backing array runs on past its end
// (into the blob's next lists, or the slack), which the decoders read
// words from. A failed read returns the error and arena as it was.
func (x *Index) ListFrom(t kmer.Term, from int, arena []byte) (list []byte, df, next int, grown []byte, err error) {
	next = x.seek(t, from)
	if next >= len(x.terms) || x.terms[next] != uint64(t) {
		return nil, 0, next, arena, nil
	}
	off, n := x.listSpan(next)
	if x.fetch == nil {
		return x.blob[off : off+uint64(n)], int(x.dfs[next]), next, arena, nil
	}
	start := len(arena)
	grown = slices.Grow(arena, int(n)+postings.Slack)[:start+int(n)+postings.Slack] // amortised arena: the caller's, reused across queries
	clear(grown[start+int(n):])
	if list, err = x.fetch(off, n, grown[start:start+int(n)]); err != nil {
		return nil, int(x.dfs[next]), next, arena, err
	}
	return list, int(x.dfs[next]), next, grown, nil
}

// Seqs returns the universe the index's lists are coded against.
func (x *Index) Seqs() postings.Seqs { return x.seqs }

// readSlot positions it over the list of lexicon slot i (-1: no list).
// A paged index reads the list into the iterator's own buffer, which
// the iterator is done with by the time it is reset over the next list;
// a read that fails becomes the iterator's error.
func (x *Index) readSlot(i int, it *postings.Iterator) (df, bytes int) {
	if i < 0 {
		it.Reset(nil, 0, x.seqs)
		return 0, 0
	}
	var dst []byte
	if x.fetch != nil {
		_, n := x.listSpan(i)
		dst = it.Buffer(int(n))
	}
	buf, err := x.listBytes(i, dst)
	if err != nil {
		it.Fail(err)
		return int(x.dfs[i]), 0
	}
	it.Reset(buf, int(x.dfs[i]), x.seqs)
	return int(x.dfs[i]), len(buf)
}

// Postings decodes and returns the full posting list of term t.
// Intended for tests and tools; query evaluation uses ListFrom.
func (x *Index) Postings(t kmer.Term) ([]postings.Entry, error) {
	i := x.lookup(t)
	if i < 0 {
		return nil, nil
	}
	buf, err := x.listBytes(i, nil)
	if err != nil {
		return nil, err
	}
	return postings.Decode(buf, int(x.dfs[i]), x.seqs)
}

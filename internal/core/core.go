// Package core implements the paper's contribution: partitioned search
// over a nucleotide collection. A coarse phase ranks sequences by
// interval similarity to the query using only the inverted index; a
// fine phase runs local alignment on the top-ranked candidates only.
// The result is the accuracy of local alignment at a fraction of the
// exhaustive cost, because the expensive dynamic programming touches a
// bounded number of sequences regardless of collection size.
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// Source supplies candidate sequences to the fine phase: their lengths,
// and any range of their bases decoded into the caller's buffer, so a
// banded candidate costs the window its band reads rather than the whole
// sequence. *db.Store satisfies it.
type Source interface {
	Len() int
	SeqLen(i int) int
	// AppendRange appends bases [from, to) of sequence i to dst and
	// returns the extended slice; 0 ≤ from ≤ to ≤ SeqLen(i).
	AppendRange(dst []byte, i, from, to int) []byte
}

// maxPooledSeq caps the whole-subject buffer the searcher keeps between
// candidates (1 MiB); a longer subject is read into a buffer of its own,
// so one huge sequence does not pin its bases in every pooled searcher.
const maxPooledSeq = 1 << 20

// CoarseMode selects how the coarse phase scores a sequence from the
// posting lists of the query's intervals. The modes are the ablation
// axis of experiment E8.
type CoarseMode int

const (
	// CoarseDistinct counts the distinct query intervals present in
	// the sequence — the paper's basic ranking.
	CoarseDistinct CoarseMode = iota
	// CoarseTotal sums total occurrences of query intervals, which
	// favours long and repetitive sequences.
	CoarseTotal
	// CoarseNormalised divides the distinct count by log₂ of the
	// sequence length, damping the long-sequence bias.
	CoarseNormalised
	// CoarseDiagonal clusters interval hits by alignment diagonal and
	// scores the densest diagonal band (a FRAMES-style measure), read
	// from the offsets every posting stores.
	CoarseDiagonal
)

// coarseModeNames is the one table of coarse-mode names. String,
// MarshalText and UnmarshalText all read it, so E8's table labels, the
// cafe-search flag, the server's parameter and JSON field take the same
// words, and a mode without a name here is invalid.
var coarseModeNames = [...]string{
	CoarseDistinct:   "distinct",
	CoarseTotal:      "total",
	CoarseNormalised: "normalised",
	CoarseDiagonal:   "diagonal",
}

func (m CoarseMode) valid() bool { return m >= 0 && int(m) < len(coarseModeNames) }

// String returns the mode's table label.
func (m CoarseMode) String() string {
	if !m.valid() {
		return fmt.Sprintf("CoarseMode(%d)", int(m))
	}
	return coarseModeNames[m]
}

// MarshalText returns the mode's label.
func (m CoarseMode) MarshalText() ([]byte, error) {
	if !m.valid() {
		return nil, Invalid(fmt.Errorf("core: unknown coarse mode %d", int(m)))
	}
	return []byte(coarseModeNames[m]), nil
}

// UnmarshalText sets m to the mode labelled text. Empty text leaves m
// unchanged, so an empty flag, parameter or JSON string keeps the
// default it was decoded onto. An unknown label is an ErrInvalid error
// naming it and every mode.
func (m *CoarseMode) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		return nil
	}
	for i, name := range coarseModeNames {
		if string(text) == name {
			*m = CoarseMode(i)
			return nil
		}
	}
	return Invalid(fmt.Errorf("core: unknown coarse mode %q: want one of %s",
		text, strings.Join(coarseModeNames[:], ", ")))
}

// FineMode selects the fine-phase aligner.
type FineMode int

const (
	// FineFull runs unrestricted Smith–Waterman on each candidate:
	// exact scores, highest cost. The score pass is striped
	// (align.StripedProfile: 8-bit DP lanes, widening to 16-bit lanes
	// once a pair's score outgrows a byte; a gap crossing the stripes is
	// carried by a prefix scan across the lanes and one correction sweep
	// a column). It runs 32 or 16 lanes to a
	// YMM register on amd64 CPUs whose CPUID reports AVX2, and eight or
	// four lanes to a uint64 elsewhere, with identical answers; a pair
	// beyond the 16-bit lanes' capacity takes the scalar
	// Subst.LocalScore.
	FineFull FineMode = iota
	// FineBanded runs a banded Smith–Waterman around each candidate's
	// best hit diagonal: near-exact at a fraction of the cost.
	FineBanded
)

// String returns the mode's table label.
func (m FineMode) String() string {
	switch m {
	case FineFull:
		return "full"
	case FineBanded:
		return "banded"
	}
	return fmt.Sprintf("FineMode(%d)", int(m))
}

// Options configures one search.
type Options struct {
	// Candidates is the coarse-phase budget: at most this many
	// top-ranked sequences proceed to fine alignment.
	Candidates int
	// MinCoarseHits discards sequences sharing fewer than this many
	// distinct intervals with the query before ranking.
	MinCoarseHits int
	// CoarseMode selects the coarse ranking function.
	CoarseMode CoarseMode
	// FineMode selects the fine aligner.
	FineMode FineMode
	// Band is the half-width for FineBanded.
	Band int
	// MinScore discards fine alignments below this score.
	MinScore int
	// Limit truncates the result list; 0 means no truncation.
	Limit int
	// BothStrands also searches the reverse complement of the query
	// and reports each sequence's best strand, as nucleotide search
	// tools conventionally do.
	BothStrands bool
	// Prescreen, when positive, inserts a middle phase between coarse
	// ranking and fine alignment: an ungapped x-drop extension from
	// the candidate's best shared interval. Candidates whose extension
	// scores below Prescreen are dropped before the (far more
	// expensive) fine alignment — the three-phase structure of the
	// production CAFE design.
	Prescreen int
}

// DefaultOptions returns the configuration of the headline experiments.
func DefaultOptions() Options {
	return Options{
		Candidates:    100,
		MinCoarseHits: 2,
		CoarseMode:    CoarseDistinct,
		FineMode:      FineBanded,
		Band:          24,
		MinScore:      1,
		Limit:         20,
	}
}

// ErrInvalid marks a search error as the caller's: options Validate
// rejects, or a query this index cannot evaluate (shorter than its
// interval, or long enough that Match·len(query) + Match + Mismatch +
// GapOpen + GapExtend reaches 2^31, past the kernels' int32 scores:
// align.Scoring.FitsQuery). Everything else a
// search returns — a corrupt posting list, a failed read under a paged
// index — is the database's or the machine's fault. Test with errors.Is.
var ErrInvalid = errors.New("invalid search request")

// Invalid marks err as the caller's fault: errors.Is(Invalid(err),
// ErrInvalid) holds and the error's text is unchanged.
func Invalid(err error) error { return invalidError{err} }

type invalidError struct{ error }

func (e invalidError) Is(target error) bool { return target == ErrInvalid }
func (e invalidError) Unwrap() error        { return e.error }

// Validate reports the first setting a search would reject. Searches
// run it themselves; it is exported so a service can refuse bad
// defaults at start-up instead of on every request.
func (o Options) Validate() error {
	if err := o.validate(); err != nil {
		return Invalid(err)
	}
	return nil
}

func (o Options) validate() error {
	if o.Candidates < 1 {
		return fmt.Errorf("core: candidate budget %d must be positive", o.Candidates)
	}
	if o.MinCoarseHits < 1 {
		return fmt.Errorf("core: MinCoarseHits %d must be positive", o.MinCoarseHits)
	}
	if !o.CoarseMode.valid() {
		return fmt.Errorf("core: unknown coarse mode %d", o.CoarseMode)
	}
	if o.FineMode < FineFull || o.FineMode > FineBanded {
		return fmt.Errorf("core: unknown fine mode %d", o.FineMode)
	}
	if o.FineMode == FineBanded && o.Band < 1 {
		return fmt.Errorf("core: banded fine phase needs Band ≥ 1, got %d", o.Band)
	}
	if o.MinScore < 0 || o.Limit < 0 {
		return fmt.Errorf("core: negative MinScore or Limit")
	}
	if o.Prescreen < 0 {
		return fmt.Errorf("core: negative Prescreen %d", o.Prescreen)
	}
	return nil
}

// Result is one search answer.
type Result struct {
	// ID is the sequence identifier in the store.
	ID int
	// Score is the fine-phase local alignment score.
	Score int
	// Coarse is the coarse-phase score that admitted the candidate.
	Coarse float64
	// Reverse is true when the match is against the reverse complement
	// of the query (BothStrands searches only). Alignment spans then
	// refer to the reverse-complemented query.
	Reverse bool
	// Alignment carries the spans and the transcript of every reported
	// result with a positive score (finishTracebacks fills them in); a
	// score-0 result carries only its score pass's end cell.
	Alignment align.Alignment
}

// Segment is one immutable slice of the collection as the coarse phase
// sees it: an inverted index over the segment's sequences (local ids
// 0..NumSeqs-1) plus the global id of its first sequence. Deleted, when
// non-nil, reports tombstoned local ids the coarse phase must skip —
// their postings still exist until compaction rewrites the segment.
type Segment struct {
	Index   *index.Index
	Base    int
	Deleted func(local int) bool
}

// Searcher evaluates partitioned queries against a set of index
// segments and their sequence store. It is safe for concurrent use only
// if each goroutine uses its own Searcher (scratch state is reused
// between queries).
type Searcher struct {
	segs    []Segment
	src     Source
	scoring align.Scoring
	// subst is scoring compiled for the scalar kernels' inner loops,
	// built once here.
	subst *align.Subst

	// coder and opts are shared by every segment (the constructor
	// enforces equal build options across segments).
	coder *kmer.Coder
	opts  index.Options

	// snapshot is the caller's opaque identity token for the segment
	// set this searcher was built over; pools compare it to detect
	// searchers built for a superseded snapshot.
	snapshot any

	// Scratch reused across queries. acc is sized for the largest
	// segment and reset per segment.
	acc accumulators
	// arena holds the lists a paged index reads for one query, kept
	// until the hand-over has read their offsets (see Index.ListFrom).
	arena []byte // query-lifetime list copies, truncated at the start of each coarse call
	// walk is the id and count scratch of a walk that logs nothing, and
	// the offsets the diagonal mode reads; both are refilled per list.
	walk struct{ ids, counts, offs []uint32 }
	// terms is the current query's intervals, one packed (term, query
	// position) pair each, sorted — so ordered by term, then position —
	// and rebuilt at the start of each coarse call. It is the one
	// query-term structure: the coarse walk merge-joins its runs against
	// the lexicon in ascending term order, and the seed hand-over reads
	// the runs the walk logged. Read-only during the fine phase.
	terms []queryTerm // query-lifetime term array, refilled at the start of each coarse call

	// candBuf backs the bounded top-k candidate selection; it holds at
	// most Candidates entries and is reused across queries (the fine
	// phase finishes with it before the next coarse call).
	candBuf []Candidate // top-k backing, reclaimed after each query's fine phase

	// recs holds one record per candidate of the current search, the
	// forward strand's before the reverse strand's (see candRec). After a
	// search, recs[:len(results)] are the reported records in rank order.
	recs []candRec // per-search candidate records, truncated at the start of each search

	// log is the coarse walk's record of the postings it decoded, from
	// which each admitted candidate's seed is read (see seedLog).
	log seedLog

	// scratch is the fine phase's and the tracebacks' kernel scratch
	// and read buffer, reused across candidates and queries.
	scratch kernelScratch

	// bvProfile is the pooled striped query profile of the FineFull
	// score pass, rebuilt once per strand (Build reuses its backing).
	bvProfile align.StripedProfile

	// stats receives the counters of a search whose caller passed no
	// SearchStats (Search, Coarse), so the pipeline below the exported
	// boundary always has somewhere to count. Nothing reads it.
	stats SearchStats

	// scalarFine makes FineFull skip the striped pass and score every
	// candidate with the scalar fallback. Only this package's tests set
	// it: the reference the equivalence suites hold the route to.
	scalarFine bool
}

// NewSearcher returns a single-segment searcher over idx and src — the
// monolithic-index form every pre-segment caller uses. src must be the
// store the index was built from; the searcher checks the sequence
// counts agree. The snapshot token is the index pointer itself.
func NewSearcher(idx *index.Index, src Source, scoring align.Scoring) (*Searcher, error) {
	return NewSegmentedSearcher([]Segment{{Index: idx}}, src, scoring, idx)
}

// NewSegmentedSearcher returns a searcher over an ordered set of
// segments covering contiguous global ids: segment i's local id j names
// global sequence segs[i].Base+j, and src supplies sequences by global
// id. Every segment must be built with the same index options and the
// segments' sequence counts must sum to src.Len(). snapshot is an
// opaque identity token for this segment set, returned by Snapshot();
// searcher pools compare it to detect stale scratch after an append or
// compaction swaps the set.
func NewSegmentedSearcher(segs []Segment, src Source, scoring align.Scoring, snapshot any) (*Searcher, error) {
	if err := scoring.Validate(); err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("core: searcher needs at least one segment")
	}
	opts := segs[0].Index.Options()
	total, maxSeqs := 0, 0
	for i, sg := range segs {
		if sg.Index == nil {
			return nil, fmt.Errorf("core: segment %d has no index", i)
		}
		if sg.Index.Options() != opts {
			return nil, fmt.Errorf("core: segment %d build options differ from segment 0", i)
		}
		if sg.Base != total {
			return nil, fmt.Errorf("core: segment %d starts at global id %d, want %d (segments must be contiguous)", i, sg.Base, total)
		}
		total += sg.Index.NumSeqs()
		if n := sg.Index.NumSeqs(); n > maxSeqs {
			maxSeqs = n
		}
	}
	if total != src.Len() {
		return nil, fmt.Errorf("core: segments index %d sequences, store has %d", total, src.Len())
	}
	// The seed log holds a global id in 31 bits (postings.Multi).
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("core: segments index %d sequences, more than 2³¹−1", total)
	}
	logSegs := make([]logSegment, len(segs))
	for i, sg := range segs {
		logSegs[i] = logSegment{seqs: sg.Index.Seqs(), base: uint32(sg.Base)}
	}
	return &Searcher{
		segs:     append([]Segment(nil), segs...),
		src:      src,
		scoring:  scoring,
		subst:    align.NewSubst(scoring),
		coder:    segs[0].Index.Coder(),
		opts:     opts,
		snapshot: snapshot,
		acc:      newAccumulators(maxSeqs),
		log:      seedLog{candOf: make([]int32, total), segs: logSegs},
	}, nil
}

// Snapshot returns the identity token of the segment set this searcher
// was built over (see NewSegmentedSearcher).
func (s *Searcher) Snapshot() any { return s.snapshot }

// NumSegments returns the number of segments the searcher evaluates.
func (s *Searcher) NumSegments() int { return len(s.segs) }

// Candidate is a coarse-phase ranking entry.
type Candidate struct {
	ID    int
	Score float64 // coarse score under the selected mode
	Hits  int     // distinct query intervals present
	Diag  int     // densest diagonal (CoarseDiagonal only)
}

// candRec is one candidate's state through a search. It holds no
// pointers, so the searcher pools one slice of them across searches.
// Each phase writes its own fields once: the coarse hand-over the
// candidate's identity, seed and band centre, the fine phase its score,
// end cell and work.
type candRec struct {
	// Written by the coarse hand-over. centre is the band's diagonal:
	// Candidate.Diag under CoarseDiagonal, the seed's otherwise. seed is
	// set only when the search needs seeds (see searchStrand).
	id      int
	coarse  float64
	seed    seedHit
	centre  int
	reverse bool // set after the reverse strand's fine phase

	// Written by the fine phase. Ranking needs only the score, so the
	// score pass leaves the alignment's end cell (aEnd is 0 when the
	// striped pass reports only the column) and finishTracebacks traces
	// the reported records. striped marks a FineFull score from the
	// striped lanes, tied one whose best cells lie in several subject
	// columns, so that the lanes cannot say where align.Local ends.
	// rejected marks a record the prescreen dropped before alignment.
	score, aEnd, bEnd       int
	striped, tied, rejected bool
	cells                   int64
	prescreen               time.Duration
}

// Search runs the full partitioned evaluation: coarse ranking, then
// fine local alignment of the top candidates. With BothStrands set the
// reverse complement of the query is evaluated too and each sequence
// reports its best strand.
func (s *Searcher) Search(query []byte, opts Options) ([]Result, error) {
	return s.SearchWithStatsContext(context.Background(), query, opts, nil) // context-free wrapper; running without a deadline is Search's documented behaviour
}

// SearchWithStatsContext is the search: it runs Search's evaluation
// and fills st with its per-stage work counters and wall times (st is
// reset first). Every search counts; a nil st only means the caller
// does not want the numbers, and they go to the searcher's own scratch.
//
// Cancellation is cooperative: the evaluation checks ctx between
// posting lists in the coarse phase, between batches of candidates in
// the prescreen and fine phases (one candidate under FineFull, at most
// align.MaxLanes, 16, under FineBanded) and between tracebacks — coarse
// enough that the hot decode and DP loops stay allocation-free, fine
// enough that even a long Smith–Waterman fine phase stops within one
// batch of at most 16 candidates' alignments. On
// cancellation it returns ctx.Err() (so errors.Is(err,
// context.Canceled) works) and no results.
func (s *Searcher) SearchWithStatsContext(ctx context.Context, query []byte, opts Options, st *SearchStats) ([]Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if !s.scoring.FitsQuery(len(query)) {
		return nil, Invalid(fmt.Errorf("core: a query of %d bases could score past 2^31 under match %d", len(query), s.scoring.Match))
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if st == nil {
		st = &s.stats
	}
	st.Reset()
	st.Strands = 1
	start := time.Now()
	s.recs = s.recs[:0]
	if err := s.searchStrand(ctx, query, opts, st); err != nil {
		return nil, err
	}
	var rc []byte
	if opts.BothStrands {
		st.Strands = 2
		forward := len(s.recs)
		rc = dna.ReverseComplement(query)
		if err := s.searchStrand(ctx, rc, opts, st); err != nil {
			return nil, err
		}
		for i := forward; i < len(s.recs); i++ {
			s.recs[i].reverse = true
		}
	}
	out, err := s.finishTracebacks(ctx, query, rc, s.rank(opts), opts, st)
	if err != nil {
		return nil, err
	}
	st.Results = len(out)
	st.TotalTime = time.Since(start)
	return out, nil
}

// rank orders the records that passed best-first — score descending,
// then id — and applies Limit. Under BothStrands each id first keeps its
// better record, the forward strand's on a tie. It sorts s.recs in
// place, so the ranked records are a prefix of s.recs.
//
// The ranked records live in s.recs until the next search.
func (s *Searcher) rank(opts Options) []candRec {
	recs := s.recs
	if opts.BothStrands {
		// The forward strand's records come first, and a stable sort
		// keeps them ahead of equal reverse ones.
		slices.SortStableFunc(recs, func(a, b candRec) int {
			return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(b.score, a.score))
		})
		recs = slices.CompactFunc(recs, func(a, b candRec) bool { return a.id == b.id })
	}
	slices.SortFunc(recs, func(a, b candRec) int {
		return cmp.Or(cmp.Compare(b.score, a.score), cmp.Compare(a.id, b.id))
	})
	if opts.Limit > 0 && len(recs) > opts.Limit {
		recs = recs[:opts.Limit]
	}
	return recs
}

// finishTracebacks builds the reported results from the ranked records,
// tracing each positive score's alignment. Only the reported records —
// at most Limit — pay for a direction matrix, and that matrix is a strip
// around the alignment (the band under FineBanded, align.LocalEndingAt's
// under FineFull), never the whole query × subject matrix. Cancellation
// is checked once per traceback. A banded traceback that misses its
// record's score is an internal error: the score pass and the traceback
// share the record's window and centre, so only a record the search did
// not score itself can reach it.
func (s *Searcher) finishTracebacks(ctx context.Context, query, rcQuery []byte, recs []candRec, opts Options, st *SearchStats) ([]Result, error) {
	t0 := time.Now()
	banded := &s.scratch.banded
	out := make([]Result, len(recs))
	for i, r := range recs {
		out[i] = Result{ID: r.id, Score: r.score, Coarse: r.coarse, Reverse: r.reverse,
			Alignment: align.Alignment{Score: r.score, AStart: r.aEnd, AEnd: r.aEnd, BStart: r.bEnd, BEnd: r.bEnd}}
		if r.score == 0 {
			continue // no alignment to trace
		}
		if err := ctx.Err(); err != nil {
			st.TracebackTime += time.Since(t0)
			return nil, err
		}
		q := query
		if r.reverse {
			q = rcQuery
		}
		n := s.src.SeqLen(r.id)
		if opts.FineMode == FineFull {
			// The score pass knows where align.Local's alignment ends —
			// the one column holding every best cell (striped pass) or the
			// cell itself (scalar fallback) — unless best cells tie across
			// columns; the scalar forward pass then finds Local's. Either
			// way the transcript is Local's, and it reads the subject only
			// up to its end column.
			aEnd, bEnd := r.aEnd, r.bEnd
			var subject []byte
			if r.tied {
				subject = s.read(r.id, 0, n)
				_, aEnd, bEnd = s.subst.LocalScore(q, subject, banded)
				st.TracebackDPCells += align.LocalCells(len(q), n)
			} else {
				subject = s.read(r.id, 0, bEnd)
			}
			out[i].Alignment = s.subst.LocalEndingAt(q, subject, r.score, aEnd, bEnd, banded)
			st.TracebackAlignments++
			st.TracebackDPCells += s.subst.TraceCells(len(q), r.score, aEnd, bEnd)
			continue
		}
		// The score pass already reported the alignment's end row, and
		// no row after it can change the first best cell, so the
		// direction matrix stops there. One forward pass only: a banded
		// alignment nearly fills its band, so a reverse pass to bound
		// the start would cost more cells than it saves. It reads only
		// the band's window of the subject.
		from, to := bandWindow(r.centre, opts.Band, r.aEnd, n)
		al := s.subst.BandedLocal(q[:r.aEnd], s.read(r.id, from, to), r.centre-from, opts.Band, banded)
		st.TracebackAlignments++
		st.TracebackDPCells += align.BandedCells(r.aEnd, n, r.centre, opts.Band)
		if al.Score != r.score {
			return nil, fmt.Errorf("core: banded traceback of sequence %d scores %d, its score pass %d", r.id, al.Score, r.score)
		}
		al.BStart += from
		al.BEnd += from
		out[i].Alignment = al
	}
	st.TracebackTime += time.Since(t0)
	return out, nil
}

// bandWindow returns the range [from, to) of a subject of n bases that
// holds every cell of the band centre±band over rows rows: from the
// band's first diagonal at row 0 to its last at row rows−1, clipped to
// the subject (empty when the band misses it). A banded kernel run on
// that window, with the centre shifted by from, computes exactly the
// cells it computes on the whole subject: cells outside the window are
// outside the band or the subject.
func bandWindow(centre, band, rows, n int) (from, to int) {
	from = min(max(centre-band, 0), n)
	to = max(min(centre+band+rows, n), from)
	return from, to
}

// read decodes bases [from, to) of sequence id into the searcher's
// pooled buffer and returns them; the slice is valid until the next
// read.
func (s *Searcher) read(id, from, to int) []byte {
	seq := s.src.AppendRange(s.scratch.seq[:0], id, from, to) // AppendRange decodes into dst and keeps no reference to it
	if cap(seq) <= maxPooledSeq {
		s.scratch.seq = seq
	}
	return seq
}

// searchStrand evaluates one orientation of the query: the coarse phase
// appends one record per candidate to s.recs, and the fine phase scores
// them in candidate order, in batches of up to align.MaxLanes under
// FineBanded and one at a time under FineFull, folds each one's work
// into st and keeps the records that passed. Cancellation is checked
// between posting lists (coarse) and before each batch (fine), so a
// cancelled fine phase stops within one batch of at most 16.
func (s *Searcher) searchStrand(ctx context.Context, query []byte, opts Options, st *SearchStats) error {
	t0 := time.Now()
	// A seed anchors the prescreen extension and centres a band the
	// coarse mode did not already place.
	needSeeds := opts.Prescreen > 0 || opts.FineMode == FineBanded && opts.CoarseMode != CoarseDiagonal
	first := len(s.recs)
	if _, err := s.coarse(ctx, query, opts.CoarseMode, opts.MinCoarseHits, opts.Candidates, needSeeds, st); err != nil {
		return err
	}
	recs := s.recs[first:]
	st.CoarseTime += time.Since(t0)
	st.CoarseCandidates += len(recs)
	t0 = time.Now()
	if opts.FineMode == FineFull && len(recs) > 0 {
		s.bvProfile.Build(query, s.scoring)
	}
	batch := 1
	if opts.FineMode == FineBanded {
		batch = align.MaxLanes
	}
	// The records that passed move to the front of the strand's records.
	kept := first
	for start := 0; start < len(recs); start += batch {
		if err := ctx.Err(); err != nil {
			st.FineTime += time.Since(t0)
			return err
		}
		group := recs[start:min(start+batch, len(recs))]
		s.fine(query, group, opts)
		for i := range group {
			r := &group[i]
			st.PrescreenTime += r.prescreen
			if r.rejected {
				st.PrescreenRejections++
				continue
			}
			st.FineAlignments++
			st.FineDPCells += r.cells
			if r.striped {
				st.BitvectorAlignments++
			}
			if r.score >= opts.MinScore {
				s.recs[kept] = *r
				kept++
			}
		}
	}
	s.recs = s.recs[:kept]
	st.FineTime += time.Since(t0)
	return nil
}

// fine scores a batch of records, writing their fine-phase fields: each
// one's prescreen first, then under FineFull each one alone, and under
// FineBanded every record the prescreen kept in one
// BandedLocalScoreLanes call over the records' band windows.
func (s *Searcher) fine(query []byte, recs []candRec, opts Options) {
	var lanes [align.MaxLanes]int // the banded records, by index in recs
	k := 0
	for i := range recs {
		r := &recs[i]
		n := s.src.SeqLen(r.id)
		var seq []byte // the whole subject, read when something needs it
		if opts.Prescreen > 0 {
			p0 := time.Now()
			seq = s.read(r.id, 0, n)
			score, _, _, _, _ := align.ExtendUngapped(
				query, seq, r.seed.qPos, r.seed.sPos, s.opts.K, s.scoring, prescreenXDrop)
			r.prescreen = time.Since(p0)
			r.rejected = score < opts.Prescreen
			if r.rejected {
				continue
			}
		}
		switch opts.FineMode {
		case FineFull:
			// Exact score and end cell, no transcript.
			if seq == nil {
				seq = s.read(r.id, 0, n)
			}
			var unique bool
			if !s.scalarFine {
				r.score, r.bEnd, unique, r.striped = s.bvProfile.Score(seq, &s.scratch.bv)
			}
			if !r.striped {
				// A pair beyond the lanes' capacity.
				r.score, r.aEnd, r.bEnd = s.subst.LocalScore(query, seq, &s.scratch.banded)
			}
			r.tied = r.striped && r.score > 0 && !unique
			r.cells = align.LocalCells(len(query), n)
		case FineBanded:
			r.cells = align.BandedCells(len(query), n, r.centre, opts.Band)
			lanes[k] = i
			k++
		}
	}
	if k == 0 {
		return
	}
	// The bands read only their windows of the subjects, one after
	// another in the read buffer, which the kernel scores with each
	// centre shifted by its window's start.
	var (
		from, ends, centres [align.MaxLanes]int
		windows             [align.MaxLanes][]byte
		out                 [align.MaxLanes]align.LaneScore
	)
	buf := s.scratch.seq[:0]
	for j, i := range lanes[:k] {
		r := &recs[i]
		var to int
		from[j], to = bandWindow(r.centre, opts.Band, len(query), s.src.SeqLen(r.id))
		buf = s.src.AppendRange(buf, r.id, from[j], to) // AppendRange appends to buf and keeps no reference to it
		ends[j], centres[j] = len(buf), r.centre-from[j]
	}
	if cap(buf) <= maxPooledSeq {
		s.scratch.seq = buf
	}
	start := 0
	for j := range k {
		windows[j], start = buf[start:ends[j]], ends[j]
	}
	s.subst.BandedLocalScoreLanes(query, windows[:k], centres[:k], opts.Band, &s.scratch.banded, out[:k])
	for j, i := range lanes[:k] {
		r := &recs[i]
		r.score, r.aEnd, r.bEnd = out[j].Score, out[j].AEnd, out[j].BEnd
		if r.score > 0 {
			r.bEnd += from[j] // back to subject coordinates
		}
	}
}

// prescreenXDrop is the x-drop for the middle-phase ungapped
// extension; generous enough to climb through scattered mismatches.
const prescreenXDrop = 30

// Coarse runs only the coarse phase, returning every sequence with at
// least minHits distinct query intervals, ranked best-first under mode.
// Exposed for the recall experiments, which sweep the candidate budget
// over a single coarse ranking — so unlike Search's internal coarse
// call it keeps the full sort over every touched sequence instead of
// the bounded top-k selection.
func (s *Searcher) Coarse(query []byte, mode CoarseMode, minHits int) ([]Candidate, error) {
	return s.coarse(context.Background(), query, mode, minHits, 0, false, &s.stats) // context-free wrapper; the recall experiments drive Coarse without a request context
}

// coarse implements the coarse phase: for each segment in order,
// accumulate the query's posting lists and fold the segment's
// qualifying sequences — rebased to global ids — into one shared
// selection. topK > 0 selects the best topK with a bounded heap —
// O(touched·log k) instead of the full sort's O(n·log n) — and reuses
// the searcher's candidate buffer; topK ≤ 0 full-sorts every qualifying
// sequence into a fresh slice (the Coarse recall API).
//
// Per-sequence coarse scores are segment-local quantities (distinct and
// total counts, the length-normalised ratio, the densest diagonal), so
// scoring each segment independently and merging through the total
// order (score desc, global id asc — the PR-5 top-k machinery) yields
// exactly the candidate list a monolithic index over the concatenated
// collection would produce. The segmented equivalence suite locks this
// in at every segment count.
//
// With topK > 0, coarse also appends one record per candidate to
// s.recs, in candidate order, holding its id, coarse score and band
// centre; with seeded set, each record also gets its seed, read from the
// postings the walk logged (see seedLog), which centres the band unless
// mode placed it.
//
// Work counters accumulate into st (stage timing is the caller's job —
// searchStrand wraps this call in the coarse wall clock). Cancellation
// is checked once per posting list, so the per-entry accumulator loop
// stays hot.
func (s *Searcher) coarse(ctx context.Context, query []byte, mode CoarseMode, minHits, topK int, seeded bool, st *SearchStats) ([]Candidate, error) {
	if minHits < 1 {
		minHits = 1
	}
	coder := s.coder
	if len(query) < coder.Span() {
		return nil, Invalid(fmt.Errorf("core: query length %d shorter than interval span %d", len(query), coder.Span()))
	}

	if uint64(len(query)) > math.MaxUint32 {
		return nil, Invalid(fmt.Errorf("core: query length %d does not fit a 32-bit position", len(query)))
	}

	// Collect the query's intervals, sorted by term then position.
	s.terms = s.terms[:0]
	coder.ExtractFunc(query, func(pos int, t kmer.Term) {
		s.terms = append(s.terms, packQueryTerm(t, pos))
	})
	slices.Sort(s.terms)

	st.QueryTerms += distinctTerms(s.terms)

	// Selection state shared across segments: the bounded heap (or the
	// full-sort slice) receives every segment's qualifying sequences.
	var sel topKHeap
	var cands []Candidate
	if topK > 0 {
		sel = topKHeap{k: topK, heap: s.candBuf[:0]}
	}
	logging := seeded && topK > 0
	if logging {
		s.log.reset()
	}
	s.arena = s.arena[:0]
	defer func() {
		if cap(s.arena) > maxPooledArena {
			s.arena = nil
		}
	}()

	for i, seg := range s.segs {
		diag, err := s.accumulate(ctx, i, mode, logging, st)
		if err != nil {
			return nil, err
		}
		st.CoarseSequences += len(s.acc.touched)
		st.Segments++

		var diagBest map[uint32]diagResult
		if diag != nil {
			diagBest = diag.finalize()
		}
		score := func(local, hits int) Candidate {
			c := Candidate{ID: seg.Base + local, Hits: hits}
			switch mode {
			case CoarseDistinct:
				c.Score = float64(hits)
			case CoarseTotal:
				c.Score = float64(s.acc.total(local))
			case CoarseNormalised:
				c.Score = float64(hits) / math.Log2(float64(seg.Index.SeqLen(local))+16)
			case CoarseDiagonal:
				r := diagBest[uint32(local)]
				c.Score = float64(r.score)
				c.Diag = r.diag
			}
			return c
		}

		for _, local := range s.acc.touched {
			hits := s.acc.distinct(local)
			if hits < minHits {
				continue
			}
			if seg.Deleted != nil && seg.Deleted(local) {
				continue
			}
			if topK > 0 {
				// Bounded selection: only the candidate budget survives,
				// and the ordering is total (score desc, ID asc — global
				// ids are unique across segments), so the heap's output
				// is exactly the monolithic full sort's prefix.
				sel.push(score(local, hits))
			} else {
				cands = append(cands, score(local, hits))
			}
		}
	}

	if topK > 0 {
		// The sorted selection aliases the pooled buffer, which the next
		// coarse call reuses; the records carry what the later phases read.
		out := sel.sorted()
		s.candBuf = out[:0]
		first := len(s.recs)
		for _, c := range out {
			s.recs = append(s.recs, candRec{id: c.ID, coarse: c.Score, centre: c.Diag})
		}
		if logging {
			if err := s.log.handOver(s.recs[first:], s.terms, len(query), mode != CoarseDiagonal); err != nil {
				s.recs = s.recs[:first]
				return nil, err
			}
		}
		return out, nil
	}
	sortCandidates(cands)
	return cands, nil
}

// accumulate walks every posting list the query's terms have in
// segment si into the searcher's accumulator. Accumulator slots are the
// segment's local ids. The walk is a merge-join: the query's terms
// ascend, so each lexicon search resumes where the last one ended and
// the lists are read in ascending blob offset.
//
// Each list's id stream is decoded into the seed log with log set (a
// walk that would pass its 31-bit indexes fails, see maxLogIndex), into
// per-list scratch otherwise, and the accumulators are bumped from
// there. Offsets are read only by the diagonal mode, right after the
// ids, and by the hand-over.
func (s *Searcher) accumulate(ctx context.Context, si int, mode CoarseMode, log bool, st *SearchStats) (*diagAcc, error) {
	seg := s.segs[si]
	s.acc.reset()
	diag := newDiagAcc(mode == CoarseDiagonal)
	// The log lives in locals for the walk, so the per-list appends
	// neither reload nor store the slice headers through s.
	ids, counts, lists := s.log.ids, s.log.counts, s.log.lists
	if !log {
		ids, counts = s.walk.ids, s.walk.counts
	}
	arena, base, seqs := s.arena, uint32(seg.Base), seg.Index.Seqs()
	slot := 0
	for rest := s.terms; len(rest) > 0; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t := rest[0].term()
		n := 1
		for n < len(rest) && rest[n].term() == t {
			n++
		}
		lo := len(s.terms) - len(rest)
		var run []queryTerm // the query positions of t
		run, rest = rest[:n], rest[n:]
		if !log {
			ids, counts, arena = ids[:0], counts[:0], arena[:0]
		}
		list, df, next, grown, err := seg.Index.ListFrom(t, slot, arena)
		slot = next
		if err != nil {
			return nil, fmt.Errorf("core: term %d postings: %w", t, err)
		}
		if df == 0 {
			continue
		}
		arena = grown
		st.PostingLists++
		st.PostingsBytesRead += int64(len(list))
		if log && len(ids) > maxLogIndex-df {
			return nil, logOverflow(len(ids), len(s.log.offs), t)
		}
		start, c0 := len(ids), len(counts)
		var bit int64
		if ids, counts, bit, err = postings.IDs(ids, counts, list, df, seqs, base); err != nil {
			return nil, fmt.Errorf("core: term %d postings: %w", t, err)
		}
		if log {
			lists = append(lists, loggedList{list: list, bit: bit, start: int32(start), counts: int32(c0), lo: int32(lo), hi: int32(lo + n), seg: int32(si)}) // amortised scratch, like ids
		}
		s.acc.add(ids[start:], counts[c0:], base)
		if diag != nil {
			if err := s.diagonals(diag, list, bit, ids[start:], counts[c0:], base, seqs, run); err != nil {
				return nil, fmt.Errorf("core: term %d postings: %w", t, err)
			}
		}
		st.PostingsDecoded += int64(df)
	}
	if log {
		s.log.ids, s.log.counts, s.log.lists = ids, counts, lists
	} else {
		s.walk.ids, s.walk.counts = ids, counts
	}
	s.arena = arena
	return diag, nil
}

// diagonals decodes the offsets of one list's postings, logged as ids
// and counts with base, and adds each hit's diagonal against every
// query position in run to diag.
func (s *Searcher) diagonals(diag *diagAcc, list []byte, bit int64, ids, counts []uint32, base uint32, seqs postings.Seqs, run []queryTerm) error {
	offs, err := postings.Offsets(s.walk.offs[:0], list, bit, ids, counts, base, nil, seqs)
	s.walk.offs = offs
	if err != nil {
		return err
	}
	p := 0
	for _, r := range ids {
		posting := offs[p : p+1]
		if r&postings.Multi != 0 {
			posting = offs[p+1 : p+1+int(offs[p])]
			p++
		}
		p += len(posting)
		local := r&^postings.Multi - base
		for _, qt := range run {
			for _, off := range posting {
				diag.add(local, int(off)-qt.pos())
			}
		}
	}
	return nil
}

// queryTerm is one interval of the query: its term in the high 32 bits
// (any coder's term fits: kmer.MaxK is 16 bases of 2 bits) and its
// query position in the low 32, so that sorting the integers orders the
// intervals by term, then position.
type queryTerm uint64

func packQueryTerm(t kmer.Term, pos int) queryTerm {
	return queryTerm(uint64(t)<<32 | uint64(uint32(pos)))
}

func (q queryTerm) term() kmer.Term { return kmer.Term(q >> 32) }

func (q queryTerm) pos() int { return int(uint32(q)) }

// distinctTerms counts the runs of a sorted term array.
func distinctTerms(terms []queryTerm) (n int) {
	for i, qt := range terms {
		if i == 0 || qt.term() != terms[i-1].term() {
			n++
		}
	}
	return n
}

// seedHit is one shared interval on a candidate's strongest diagonal.
type seedHit struct {
	diag, qPos, sPos int
}

// kernelScratch is the searcher's reusable fine-phase state: its
// kernel scratches and read buffer.
type kernelScratch struct {
	// bv and banded are the kernel scratches (the striped kernel's DP
	// columns; the banded kernels' rows, direction matrix and
	// transcript), reused across candidates.
	bv     align.StripedScratch
	banded align.BandedScratch
	// seq holds the last read: a whole subject, or a band's window of
	// one.
	seq []byte // subject bases, overwritten by the next read
}

// accumulators is the coarse-phase scratch: one word per sequence, the
// distinct query intervals it holds in the low half and their total
// occurrences in the high half, with O(touched) reset. A half wraps
// where an int32 counter would overflow, or later.
type accumulators struct {
	w       []uint64
	touched []int
}

func newAccumulators(n int) accumulators {
	return accumulators{w: make([]uint64, n)}
}

// add bumps the sequences of one list's postings, as postings.IDs
// logged them with base: ids, with postings.Multi flagging a posting
// whose count is next in counts.
func (a *accumulators) add(ids, counts []uint32, base uint32) {
	w, touched := a.w, a.touched
	ci := 0
	for _, r := range ids {
		inc := uint64(1) | 1<<32
		if r&postings.Multi != 0 {
			inc = 1 | uint64(counts[ci])<<32
			ci++
		}
		local := r&^postings.Multi - base
		v := w[local]
		if v == 0 {
			touched = append(touched, int(local)) // amortised scratch; stabilises at the high-water mark across queries
		}
		w[local] = v + inc
	}
	a.touched = touched
}

// distinct returns the distinct query intervals sequence id holds.
func (a *accumulators) distinct(id int) int { return int(uint32(a.w[id])) }

// total returns their total occurrences in sequence id.
func (a *accumulators) total(id int) uint32 { return uint32(a.w[id] >> 32) }

func (a *accumulators) reset() {
	for _, id := range a.touched {
		a.w[id] = 0
	}
	a.touched = a.touched[:0]
}

// diagAcc clusters hits into diagonal bands of width diagBand per
// sequence, for the FRAMES-style coarse mode.
const diagBand = 16

type diagAcc struct {
	counts map[uint64]int32
}

func newDiagAcc(enabled bool) *diagAcc {
	if !enabled {
		return nil
	}
	return &diagAcc{counts: make(map[uint64]int32)}
}

func (d *diagAcc) add(id uint32, diag int) {
	// Bias the diagonal so the bucket key is non-negative.
	b := uint64(uint32((diag + (1 << 30)) / diagBand))
	d.counts[uint64(id)<<32|b]++
}

// diagResult is the densest diagonal band of one sequence.
type diagResult struct {
	score int32
	diag  int
}

// finalize computes, for every sequence seen, the largest
// two-adjacent-bucket mass and the centre diagonal of the winning band,
// in one pass over the accumulated counts.
func (d *diagAcc) finalize() map[uint32]diagResult {
	out := make(map[uint32]diagResult)
	for key, n := range d.counts {
		id := uint32(key >> 32)
		b := key & 0xFFFFFFFF
		m := n
		if nb, ok := d.counts[key&^uint64(0xFFFFFFFF)|(b+1)]; ok {
			m += nb
		}
		centre := int(b)*diagBand + diagBand - (1 << 30)
		cur, ok := out[id]
		if !ok || m > cur.score || m == cur.score && centre < cur.diag {
			out[id] = diagResult{score: m, diag: centre}
		}
	}
	return out
}

// Package core implements the paper's contribution: partitioned search
// over a nucleotide collection. A coarse phase ranks sequences by
// interval similarity to the query using only the inverted index; a
// fine phase runs local alignment on the top-ranked candidates only.
// The result is the accuracy of local alignment at a fraction of the
// exhaustive cost, because the expensive dynamic programming touches a
// bounded number of sequences regardless of collection size.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nucleodb/internal/align"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
	"nucleodb/internal/kmer"
	"nucleodb/internal/postings"
)

// Source supplies candidate sequences to the fine phase. *db.Store
// satisfies it.
type Source interface {
	Len() int
	Sequence(i int) []byte
}

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
	// scores the densest diagonal band (a FRAMES-style measure). It
	// requires an index built with offsets.
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
	// (align.StripedProfile: eight 8-bit DP lanes per uint64, widening
	// to four 16-bit lanes once a pair's score outgrows a byte); a pair
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
	// FineWorkers aligns candidates concurrently in the fine phase,
	// reducing single-query latency on multicore machines. 0 or 1 is
	// serial. Results are identical at any setting.
	FineWorkers int
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
// interval, a coarse mode it was not built for). Everything else a
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
	if o.FineWorkers < 0 {
		return fmt.Errorf("core: negative FineWorkers %d", o.FineWorkers)
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
	// result with a positive score (finishTracebacks fills them in).
	Alignment align.Alignment

	// Traceback deferral: candidates are ranked with a score-only pass
	// that leaves the alignment's end in Alignment, and only reported
	// results get transcripts. fullTraceback marks FineFull results,
	// traced as the unrestricted Smith–Waterman rather than the band;
	// tiedEnd those whose striped score pass saw best cells in several
	// subject columns and cannot say where Local ends.
	bandCentre     int
	needsTraceback bool
	fullTraceback  bool
	tiedEnd        bool
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
	// built once here and shared read-only by every fine worker.
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
	it  postings.Iterator
	// terms is the current query's intervals, one packed (term, query
	// position) pair each, sorted — so ordered by term, then position —
	// and rebuilt at the start of each coarse call. It is the one
	// query-term structure: the coarse walk merge-joins its runs against
	// the lexicon in ascending term order, the seed hand-over reads the
	// runs the walk logged, and bestSeed binary-searches it for a
	// candidate's intervals. Read-only during the fine phase.
	terms []queryTerm //cafe:pooled query-lifetime term array, refilled at the start of each coarse call
	// termBits is a one-hash Bloom filter over the terms in terms,
	// rebuilt with it. bestSeed tests it before the array, so the ~97 %
	// of a candidate's intervals that are not in the query cost a
	// multiply and a bit test instead of a search; the array stays the
	// single source of truth. Read-only during the fine phase.
	termBits termFilter //cafe:pooled query-lifetime filter, cleared with terms

	// candBuf backs the bounded top-k candidate selection; it holds at
	// most Candidates entries and is reused across queries (the fine
	// phase finishes with it before the next coarse call).
	candBuf []Candidate //cafe:pooled top-k backing, reclaimed after each query's fine phase

	// seedsFromPostings says a candidate's postings hold exactly the
	// (query position, subject position) pairs bestSeed counts: every
	// segment stores offsets and stops no term. Then the coarse walk can
	// log them and hand each admitted candidate its seed (see seedLog);
	// otherwise the fine phase extracts.
	seedsFromPostings bool
	// log is the coarse walk's record of the postings it decoded.
	log seedLog

	// seedScratch holds one bestSeed scratch per fine worker, grown to
	// the high-water FineWorkers and reused across candidates.
	seedScratch []*seedScratch

	// bvProfile is the pooled striped query profile of the FineFull
	// score pass, rebuilt once per strand (Build reuses its backing)
	// and read-only while fine workers score against it.
	bvProfile align.StripedProfile

	// stats receives the counters of a search whose caller passed no
	// SearchStats (Search, Coarse), so the pipeline below the exported
	// boundary always has somewhere to count. Nothing reads it.
	stats SearchStats

	// scalarFine makes FineFull skip the striped pass and score every
	// candidate with the scalar fallback. Only this package's tests set
	// it: the reference the equivalence suites hold the route to.
	scalarFine bool
	// extractSeeds makes every seed come from bestSeed, as if the
	// postings could not reproduce it. Only this package's tests set it:
	// the reference the hand-over is held to.
	extractSeeds bool
}

// fineScratch returns n pooled bestSeed scratches, one per fine
// worker, growing the pool at each high-water mark.
//
//cafe:pooled scratch is reused across candidates and queries
func (s *Searcher) fineScratch(n int) []*seedScratch {
	for len(s.seedScratch) < n {
		s.seedScratch = append(s.seedScratch, newSeedScratch())
	}
	return s.seedScratch[:n]
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
	seedsFromPostings := opts.StoreOffsets
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
		if sg.Index.NumStopped() > 0 {
			seedsFromPostings = false
		}
	}
	if total != src.Len() {
		return nil, fmt.Errorf("core: segments index %d sequences, store has %d", total, src.Len())
	}
	s := &Searcher{
		segs:              append([]Segment(nil), segs...),
		src:               src,
		scoring:           scoring,
		subst:             align.NewSubst(scoring),
		coder:             segs[0].Index.Coder(),
		opts:              opts,
		snapshot:          snapshot,
		acc:               newAccumulators(maxSeqs),
		seedsFromPostings: seedsFromPostings,
		log:               seedLog{limit: maxSeedLog},
	}
	if seedsFromPostings {
		s.log.candOf = make([]int32, total)
	}
	return s, nil
}

// Snapshot returns the identity token of the segment set this searcher
// was built over (see NewSegmentedSearcher).
func (s *Searcher) Snapshot() any { return s.snapshot }

// NumSegments returns the number of segments the searcher evaluates.
func (s *Searcher) NumSegments() int { return len(s.segs) }

// Candidate is a coarse-phase ranking entry.
type Candidate struct {
	ID     int
	Score  float64 // coarse score under the selected mode
	Hits   int     // distinct query intervals present
	Diag   int     // densest diagonal (CoarseDiagonal only)
	HasOff bool    // whether Diag is meaningful
}

// Search runs the full partitioned evaluation: coarse ranking, then
// fine local alignment of the top candidates. With BothStrands set the
// reverse complement of the query is evaluated too and each sequence
// reports its best strand.
func (s *Searcher) Search(query []byte, opts Options) ([]Result, error) {
	return s.SearchWithStatsContext(context.Background(), query, opts, nil) //cafe:allow ctx context-free wrapper; running without a deadline is Search's documented behaviour
}

// SearchWithStatsContext is the search: it runs Search's evaluation
// and fills st with its per-stage work counters and wall times (st is
// reset first). Every search counts; a nil st only means the caller
// does not want the numbers, and they go to the searcher's own scratch.
//
// Cancellation is cooperative: the evaluation checks ctx between
// posting lists in the coarse phase and between candidates in the
// prescreen/fine/traceback phases — coarse enough that the hot decode
// and DP loops stay allocation-free, fine enough that even a long
// Smith–Waterman fine phase stops within one candidate's alignment. On
// cancellation it returns ctx.Err() (so errors.Is(err,
// context.Canceled) works) and no results.
func (s *Searcher) SearchWithStatsContext(ctx context.Context, query []byte, opts Options, st *SearchStats) ([]Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
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
	forward, err := s.searchStrand(ctx, query, opts, st)
	if err != nil {
		return nil, err
	}
	if !opts.BothStrands {
		out, err := s.finishTracebacks(ctx, query, nil, s.finish(forward, opts), opts, st)
		if err != nil {
			return nil, err
		}
		st.Results = len(out)
		st.TotalTime = time.Since(start)
		return out, nil
	}
	rc := dna.ReverseComplement(query)
	reverse, err := s.searchStrand(ctx, rc, opts, st)
	if err != nil {
		return nil, err
	}
	for i := range reverse {
		reverse[i].Reverse = true
	}
	// Merge: keep each sequence's best strand. The two slices are read
	// where they are — append(forward, reverse...) would copy one strand
	// into the other's backing only to iterate it once.
	best := make(map[int]Result, len(forward)+len(reverse))
	for _, r := range forward {
		if cur, ok := best[r.ID]; !ok || r.Score > cur.Score {
			best[r.ID] = r
		}
	}
	for _, r := range reverse {
		if cur, ok := best[r.ID]; !ok || r.Score > cur.Score {
			best[r.ID] = r
		}
	}
	merged := make([]Result, 0, len(best))
	for _, r := range best {
		merged = append(merged, r)
	}
	out, err := s.finishTracebacks(ctx, query, rc, s.finish(merged, opts), opts, st)
	if err != nil {
		return nil, err
	}
	st.Strands = 2
	st.Results = len(out)
	st.TotalTime = time.Since(start)
	return out, nil
}

// finishTracebacks replaces the score-only results that made the final
// list with traceback alignments. Only the reported results — at most
// Limit — pay for a direction matrix, and that matrix is a strip around
// the alignment (the band under FineBanded, align.LocalEndingAt's under
// FineFull), never the whole query × subject matrix. Cancellation is
// checked once per traceback.
func (s *Searcher) finishTracebacks(ctx context.Context, query, rcQuery []byte, results []Result, opts Options, st *SearchStats) ([]Result, error) {
	t0 := time.Now()
	// Tracebacks run serially after the fine phase's join, on the first
	// fine worker's scratch.
	banded := &s.fineScratch(1)[0].banded
	for i := range results {
		r := &results[i]
		if !r.needsTraceback {
			continue
		}
		if err := ctx.Err(); err != nil {
			st.TracebackTime += time.Since(t0)
			return nil, err
		}
		q := query
		if r.Reverse {
			q = rcQuery
		}
		subject := s.src.Sequence(r.ID)
		if r.fullTraceback {
			// The score pass knows where align.Local's alignment ends —
			// the one column holding every best cell (striped pass) or the
			// cell itself (scalar fallback) — unless best cells tie across
			// columns; the scalar forward pass then finds Local's. Either
			// way the transcript is Local's.
			aEnd, bEnd := r.Alignment.AEnd, r.Alignment.BEnd
			if r.tiedEnd {
				_, aEnd, bEnd = s.subst.LocalScore(q, subject, banded)
			}
			r.Alignment = s.subst.LocalEndingAt(q, subject, r.Score, aEnd, bEnd, banded)
			st.TracebackAlignments++
			st.TracebackDPCells += s.subst.TraceCells(len(q), r.Score, aEnd, bEnd)
			if r.tiedEnd {
				st.TracebackDPCells += align.LocalCells(len(q), len(subject))
			}
			r.needsTraceback, r.fullTraceback, r.tiedEnd = false, false, false
			continue
		}
		// The score pass already reported the alignment's end row, and
		// no row after it can change the first best cell, so the
		// direction matrix stops there. One forward pass only: a banded
		// alignment nearly fills its band, so a reverse pass to bound
		// the start would cost more cells than it saves.
		aEnd := r.Alignment.AEnd
		al := s.subst.BandedLocal(q[:aEnd], subject, r.bandCentre, opts.Band, banded)
		st.TracebackAlignments++
		st.TracebackDPCells += align.BandedCells(aEnd, len(subject), r.bandCentre, opts.Band)
		if al.Score == r.Score {
			r.Alignment = al
		} else {
			// The banded traceback could not reproduce the score-only
			// ranking pass. Rather than silently reporting the
			// degenerate end-coordinate stub with no transcript, fall
			// back to a full Smith–Waterman traceback; the ranking
			// score stands (the list is already ordered by it), but
			// spans, identity and the transcript come from the real
			// optimal alignment.
			r.Alignment = s.subst.Local(q, subject, banded)
			st.TracebackDPCells += align.LocalCells(len(q), len(subject)) +
				s.subst.TraceCells(len(q), r.Alignment.Score, r.Alignment.AEnd, r.Alignment.BEnd)
		}
		r.needsTraceback = false
	}
	st.TracebackTime += time.Since(t0)
	return results, nil
}

// finish orders results best-first and applies the limit.
func (s *Searcher) finish(results []Result, opts Options) []Result {
	sort.Slice(results, func(i, j int) bool {
		if results[i].Score != results[j].Score {
			return results[i].Score > results[j].Score
		}
		return results[i].ID < results[j].ID
	})
	if opts.Limit > 0 && len(results) > opts.Limit {
		results = results[:opts.Limit]
	}
	return results
}

// searchStrand evaluates one orientation of the query. Results are
// unordered; finish ranks them. st accumulates the strand's coarse and
// fine stage stats. Cancellation is checked between posting lists
// (coarse) and between candidates (fine).
func (s *Searcher) searchStrand(ctx context.Context, query []byte, opts Options, st *SearchStats) ([]Result, error) {
	t0 := time.Now()
	// A seed anchors the prescreen extension and centres a band the
	// coarse mode did not already place.
	needSeeds := opts.Prescreen > 0 || opts.FineMode == FineBanded && opts.CoarseMode != CoarseDiagonal
	cands, handed, err := s.coarse(ctx, query, opts.CoarseMode, opts.MinCoarseHits, opts.Candidates, needSeeds, st)
	if err != nil {
		return nil, err
	}
	var seeds []handedSeed // nil: extract
	if handed {
		seeds = s.log.seeds
	}
	st.CoarseTime += time.Since(t0)
	st.CoarseCandidates += len(cands)
	t0 = time.Now()
	// fine evaluates candidate i; it reads only immutable searcher
	// state (terms, termBits and the handed-over seeds are not mutated
	// during the fine phase) plus the caller-owned scratch, so it is
	// safe to run concurrently as long as each worker passes its own
	// scratch. Its stats contribution returns by value (fineWork), so the
	// parallel path needs no shared state.
	coder := s.coder
	if opts.FineMode == FineFull && len(cands) > 0 {
		s.bvProfile.Build(query, s.scoring)
	}
	fine := func(i int, sc *seedScratch) (Result, bool, fineWork) {
		var fw fineWork
		c := cands[i]
		seq := s.src.Sequence(c.ID)
		var r Result
		r.ID = c.ID
		r.Coarse = c.Score

		var seed seedHit
		haveSeed := false
		if opts.Prescreen > 0 || opts.FineMode == FineBanded && !c.HasOff {
			if seeds != nil {
				seed, haveSeed = seeds[i].hit, seeds[i].ok
			} else {
				seed, haveSeed = s.bestSeed(coder, seq, sc)
			}
		}
		if opts.Prescreen > 0 {
			p0 := time.Now()
			pass := haveSeed
			if haveSeed {
				score, _, _, _, _ := align.ExtendUngapped(
					query, seq, seed.qPos, seed.sPos, s.opts.K, s.scoring, prescreenXDrop)
				pass = score >= opts.Prescreen
			}
			fw.prescreen = time.Since(p0)
			fw.rejected = !pass
			if !pass {
				return r, false, fw
			}
		}
		switch opts.FineMode {
		case FineFull:
			// Exact score and alignment end, no transcript: the traceback
			// is deferred to the results that survive MinScore and Limit
			// (see finishTracebacks), like the banded score-only pass.
			var score, aEnd, bEnd int
			var unique, striped bool
			if !s.scalarFine {
				score, bEnd, unique, striped = s.bvProfile.Score(seq, &sc.bv)
			}
			if !striped {
				// A pair beyond the lanes' capacity.
				score, aEnd, bEnd = s.subst.LocalScore(query, seq, &sc.banded)
			}
			r.Score = score
			r.Alignment = align.Alignment{Score: score, AStart: aEnd, AEnd: aEnd, BStart: bEnd, BEnd: bEnd}
			r.needsTraceback, r.fullTraceback = score > 0, score > 0
			r.tiedEnd = striped && score > 0 && !unique
			fw.cells = align.LocalCells(len(query), len(seq))
			fw.bitvector = striped
		case FineBanded:
			centre := 0
			switch {
			case c.HasOff:
				centre = c.Diag
			case haveSeed:
				centre = seed.diag
			}
			// Ranking needs only the score; the traceback matrix is
			// deferred to the results that survive MinScore and Limit
			// (see finishTracebacks).
			score, aEnd, bEnd := s.subst.BandedLocalScore(query, seq, centre, opts.Band, &sc.banded)
			r.Score = score
			r.Alignment = align.Alignment{Score: score, AStart: aEnd, AEnd: aEnd, BStart: bEnd, BEnd: bEnd}
			r.bandCentre = centre
			r.needsTraceback = score > 0
			fw.cells = align.BandedCells(len(query), len(seq), centre, opts.Band)
		}
		fw.aligned = true
		return r, r.Score >= opts.MinScore, fw
	}

	results := make([]Result, 0, len(cands))
	if opts.FineWorkers <= 1 || len(cands) < 2 {
		sc := s.fineScratch(1)[0]
		for i := range cands {
			if err := ctx.Err(); err != nil {
				st.FineTime += time.Since(t0)
				return nil, err
			}
			r, ok, fw := fine(i, sc)
			st.addFine(fw)
			if ok {
				results = append(results, r)
			}
		}
		st.FineTime += time.Since(t0)
		return results, nil
	}

	// Parallel fine phase: candidates are distributed across workers
	// and collected in candidate order, so output is identical to the
	// serial path. Per-candidate stats ride in the slots and fold in
	// after the join, keeping the workers free of shared counters.
	// Workers check ctx before claiming each candidate and stop early
	// when it is done; the join then surfaces ctx.Err() once.
	type slot struct {
		r  Result
		ok bool
		fw fineWork
	}
	slots := make([]slot, len(cands))
	workers := opts.FineWorkers
	if workers > len(cands) {
		workers = len(cands)
	}
	scratches := s.fineScratch(workers)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(sc *seedScratch) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				r, ok, fw := fine(i, sc)
				slots[i] = slot{r, ok, fw}
			}
		}(scratches[w])
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		st.FineTime += time.Since(t0)
		return nil, err
	}
	for _, sl := range slots {
		st.addFine(sl.fw)
		if sl.ok {
			results = append(results, sl.r)
		}
	}
	st.FineTime += time.Since(t0)
	return results, nil
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
	cands, _, err := s.coarse(context.Background(), query, mode, minHits, 0, false, &s.stats) //cafe:allow ctx context-free wrapper; the recall experiments drive Coarse without a request context
	return cands, err
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
// With seeded set and topK > 0, coarse also tries to hand each
// candidate its seed: bestSeed's answer, read from the postings the walk
// logged (see seedLog) into s.log.seeds, in candidate order. handed
// reports whether it did; it does not when the postings cannot
// reproduce bestSeed or the walk outgrew the log, and the fine phase
// then extracts.
//
// Work counters accumulate into st (stage timing is the caller's job —
// searchStrand wraps this call in the coarse wall clock). Cancellation
// is checked once per posting list, so the per-entry accumulator loop
// stays hot.
func (s *Searcher) coarse(ctx context.Context, query []byte, mode CoarseMode, minHits, topK int, seeded bool, st *SearchStats) ([]Candidate, bool, error) {
	if minHits < 1 {
		minHits = 1
	}
	if mode == CoarseDiagonal && !s.opts.StoreOffsets {
		return nil, false, Invalid(fmt.Errorf("core: diagonal coarse mode needs an index built with offsets"))
	}
	coder := s.coder
	if len(query) < coder.Span() {
		return nil, false, Invalid(fmt.Errorf("core: query length %d shorter than interval span %d", len(query), coder.Span()))
	}

	if uint64(len(query)) > math.MaxUint32 {
		return nil, false, Invalid(fmt.Errorf("core: query length %d does not fit a 32-bit position", len(query)))
	}

	// Collect the query's intervals, sorted by term then position.
	s.terms = s.terms[:0]
	s.termBits.reset()
	coder.ExtractFunc(query, func(pos int, t kmer.Term) {
		s.terms = append(s.terms, packQueryTerm(t, pos))
		s.termBits.add(t)
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
	logging := seeded && topK > 0 && s.seedsFromPostings && !s.extractSeeds
	if logging {
		s.log.reset()
	}

	for _, seg := range s.segs {
		diag, err := s.accumulate(ctx, seg, mode, logging, st)
		if err != nil {
			return nil, false, err
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
				c.Score = float64(s.acc.total[local])
			case CoarseNormalised:
				c.Score = float64(hits) / math.Log2(float64(seg.Index.SeqLen(local))+16)
			case CoarseDiagonal:
				r := diagBest[uint32(local)]
				c.Score = float64(r.score)
				c.Diag = r.diag
				c.HasOff = true
			}
			return c
		}

		for _, local := range s.acc.touched {
			hits := int(s.acc.distinct[local])
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
		// The sorted selection aliases the pooled buffer; it is consumed
		// entirely within this query's fine phase, before the buffer's
		// next reuse. So is s.log.seeds, which the hand-over fills here,
		// on the calling goroutine, before any fine worker starts.
		out := sel.sorted()
		s.candBuf = out[:0]
		handed := logging && s.log.handOver(out, s.terms, len(query))
		return out, handed, nil
	}
	sortCandidates(cands)
	return cands, false, nil
}

// accumulate walks every posting list the query's terms have in one
// segment into the searcher's accumulator. Accumulator slots are the
// segment's local ids. The walk is a merge-join: the query's terms
// ascend, so each lexicon search resumes where the last one ended and
// the lists are read in ascending blob offset.
//
// With log set, every posting is also appended to the seed log, until
// the log would pass its limit; the log is then marked full and the rest
// of the walk logs nothing.
func (s *Searcher) accumulate(ctx context.Context, seg Segment, mode CoarseMode, log bool, st *SearchStats) (*diagAcc, error) {
	s.acc.reset()
	diag := newDiagAcc(mode == CoarseDiagonal)
	log = log && !s.log.full
	// The log lives in locals for the walk, so the per-posting appends
	// neither reload nor store the slice headers through s.
	recs, offs, lists, base := s.log.recs, s.log.offs, s.log.lists, uint32(seg.Base)
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
		var df, listBytes int
		df, listBytes, slot = seg.Index.ReaderStatsFrom(t, slot, &s.it)
		if df == 0 {
			continue
		}
		st.PostingLists++
		st.PostingsBytesRead += int64(listBytes)
		if log && (len(recs)+df > s.log.limit || len(offs) > s.log.limit) {
			log, s.log.full = false, true
		}
		if log {
			lists = append(lists, loggedList{int32(len(recs)), int32(lo), int32(lo + n)})
		}
		for s.it.Next() {
			e := s.it.Entry()
			s.acc.bump(int(e.ID), 1, int(e.Count))
			if log {
				r := seedRec{id: base + e.ID}
				if e.Count == 1 {
					r.off = e.Offsets[0]
				} else {
					r.off = multiOffsets | uint32(len(offs))
					offs = append(offs, e.Count)
					offs = append(offs, e.Offsets...)
				}
				recs = append(recs, r)
			}
			if diag != nil {
				for _, qt := range run {
					for _, off := range e.Offsets {
						diag.add(e.ID, int(off)-qt.pos())
					}
				}
			}
		}
		if err := s.it.Err(); err != nil {
			return nil, fmt.Errorf("core: term %d postings: %w", t, err)
		}
		st.PostingsDecoded += int64(s.it.Decoded())
	}
	s.log.recs, s.log.offs, s.log.lists = recs, offs, lists
	return diag, nil
}

// queryTerm is one interval of the query: its term in the high 32 bits
// (any coder's term fits: kmer.MaxK is 16 bases of 2 bits) and its
// query position in the low 32, so that sorting the integers orders the
// intervals by term, then position.
type queryTerm uint64

//cafe:hotpath
func packQueryTerm(t kmer.Term, pos int) queryTerm {
	return queryTerm(uint64(t)<<32 | uint64(uint32(pos)))
}

//cafe:hotpath
func (q queryTerm) term() kmer.Term { return kmer.Term(q >> 32) }

//cafe:hotpath
func (q queryTerm) pos() int { return int(uint32(q)) }

// termRun returns the run of t in a sorted term array — t's query
// positions, ascending — or an empty slice when the query lacks t.
//
//cafe:hotpath
func termRun(terms []queryTerm, t kmer.Term) []queryTerm {
	lo, hi := 0, len(terms)
	for key := packQueryTerm(t, 0); lo < hi; {
		if mid := int(uint(lo+hi) >> 1); terms[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	for end < len(terms) && terms[end].term() == t {
		end++
	}
	return terms[lo:end]
}

// distinctTerms counts the runs of a sorted term array.
func distinctTerms(terms []queryTerm) (n int) {
	for i, qt := range terms {
		if i == 0 || qt.term() != terms[i-1].term() {
			n++
		}
	}
	return n
}

// termFilter is a 64 Kbit one-hash Bloom filter over a query's terms
// (8 KB; a 2000-base query sets at most 3 % of it). Terms of any width —
// any k, spaced seeds — hash to 16 bits multiplicatively.
type termFilter [1 << 10]uint64

//cafe:hotpath
func termBit(t kmer.Term) (word, mask uint64) {
	h := uint64(t) * 0x9E3779B97F4A7C15
	return h >> 54, 1 << (h >> 48 & 63) // top 10 bits pick the word, the next 6 the bit
}

func (f *termFilter) reset() { *f = termFilter{} }

func (f *termFilter) add(t kmer.Term) {
	w, m := termBit(t)
	f[w] |= m
}

//cafe:hotpath
func (f *termFilter) has(t kmer.Term) bool {
	w, m := termBit(t)
	return f[w]&m != 0
}

// seedHit is one shared interval on a candidate's strongest diagonal.
type seedHit struct {
	diag, qPos, sPos int
}

// seedScratch is the reusable state of one bestSeed evaluation: the
// per-diagonal hit counters, the first shared interval seen on each
// diagonal, and a pre-bound extraction callback so the fine hot path
// allocates no closure per candidate. One scratch belongs to exactly
// one fine worker at a time (see Searcher.fineScratch).
type seedScratch struct {
	counts   map[int]int
	firstHit map[int][2]int
	// terms is the current query's sorted term array, set by bestSeed
	// before each extraction; extract reads it through the struct so
	// the callback closes over nothing query-specific.
	terms    []queryTerm //cafe:pooled borrowed from the searcher for the current query only
	termBits *termFilter //cafe:pooled borrowed with terms, read-only here
	extract  func(sPos int, t kmer.Term)
	// bv and banded are the worker's kernel scratches (the bitvector
	// kernel's DP columns; the banded kernels' rows, direction matrix
	// and transcript), reused across candidates; they ride in the seed
	// scratch so the fine phase's one-scratch-per-worker discipline
	// covers every kernel.
	bv     align.StripedScratch
	banded align.BandedScratch
}

func newSeedScratch() *seedScratch {
	sc := &seedScratch{
		counts:   make(map[int]int),
		firstHit: make(map[int][2]int),
	}
	sc.extract = func(sPos int, t kmer.Term) {
		if !sc.termBits.has(t) {
			return
		}
		for _, qt := range termRun(sc.terms, t) {
			qp := qt.pos()
			d := sPos - qp
			sc.counts[d]++
			if _, ok := sc.firstHit[d]; !ok {
				sc.firstHit[d] = [2]int{qp, sPos}
			}
		}
	}
	return sc
}

// bestSeed finds the strongest alignment diagonal of the query against
// seq by binning shared intervals, and returns a shared interval on it
// — the anchor for banded centring and for the prescreen extension. It
// reports false when the sequences share no interval (possible when a
// stopped term admitted the candidate via another strand or mode).
// It runs once per candidate inside the fine phase, so its scratch is
// pooled per worker rather than allocated per call.
//
//cafe:hotpath
func (s *Searcher) bestSeed(coder *kmer.Coder, seq []byte, sc *seedScratch) (seedHit, bool) {
	clear(sc.counts)
	clear(sc.firstHit)
	sc.terms, sc.termBits = s.terms, &s.termBits
	coder.ExtractFunc(seq, sc.extract)
	best, bestDiag, found := 0, 0, false
	for d, n := range sc.counts {
		if n > best || n == best && found && d < bestDiag {
			best, bestDiag, found = n, d, true
		}
	}
	if !found {
		return seedHit{}, false
	}
	hit := sc.firstHit[bestDiag]
	return seedHit{diag: bestDiag, qPos: hit[0], sPos: hit[1]}, true
}

// accumulators is the coarse-phase scratch: per-sequence distinct-term
// and total-occurrence counters with O(touched) reset.
type accumulators struct {
	distinct []int32
	total    []int32
	touched  []int
}

func newAccumulators(n int) accumulators {
	return accumulators{
		distinct: make([]int32, n),
		total:    make([]int32, n),
	}
}

//cafe:hotpath
func (a *accumulators) bump(id, distinct, total int) {
	if a.distinct[id] == 0 && a.total[id] == 0 {
		a.touched = append(a.touched, id) //cafe:allow amortised scratch; stabilises at the high-water mark across queries
	}
	a.distinct[id] += int32(distinct)
	a.total[id] += int32(total)
}

//cafe:hotpath
func (a *accumulators) reset() {
	for _, id := range a.touched {
		a.distinct[id] = 0
		a.total[id] = 0
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

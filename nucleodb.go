// Package nucleodb is a nucleotide database engine with partitioned
// (coarse/fine) query evaluation, a Go reproduction of Williams &
// Zobel, "Indexing Nucleotide Databases for Fast Query Evaluation"
// (EDBT 1996) — the design later released as the CAFE system.
//
// A query is a DNA sequence; answers are database sequences with a
// high-quality local alignment to the query. Instead of exhaustively
// aligning the query against every sequence, the engine first ranks
// sequences with an inverted index of fixed-length substrings
// (intervals) and then runs local alignment only on the top-ranked
// candidates:
//
//	db, _ := nucleodb.Build(records, nucleodb.DefaultBuildConfig())
//	results, _ := db.Search("ACGTTGCA...", nucleodb.DefaultSearchOptions())
//	for _, r := range results {
//	    fmt.Println(r.Desc, r.Score)
//	}
//
// Sequences are stored compressed (direct coding: 2 bits per base plus
// a wildcard exception list) and posting lists are Golomb/Elias/Rice coded,
// so the whole database is a fraction of the FASTA input's size.
package nucleodb

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"nucleodb/internal/align"
	"nucleodb/internal/core"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
	"nucleodb/internal/metrics"
	"nucleodb/internal/segment"
	"nucleodb/internal/stats"
)

// Record is one database entry: a description line and its nucleotide
// sequence as IUPAC letters (either case; 'U' is accepted as 'T').
type Record struct {
	Desc     string
	Sequence string
}

// BuildConfig controls database construction.
type BuildConfig struct {
	// IntervalLength is the indexed substring length, 1–12. Shorter
	// intervals give denser posting lists; longer intervals give a
	// larger lexicon. The experiments centre on 8–10.
	IntervalLength int
	// StoreOffsets is kept for source compatibility: every index stores
	// its occurrence offsets, which seed each banded search and serve
	// the diagonal coarse ranking.
	//
	// Deprecated: offsets are always stored; ignored.
	StoreOffsets bool
	// StopFraction discards this fraction of the most frequent
	// intervals from the index (index stopping). 0 disables.
	StopFraction float64
	// SpacedMask, when non-empty, indexes spaced seeds instead of
	// contiguous intervals: the '1' positions of the mask (e.g.
	// "111010010100110111", PatternHunter's weight-11 shape) are
	// sampled from each window. IntervalLength is then ignored. Spaced
	// seeds markedly improve sensitivity to diverged homologies at
	// equal vocabulary size.
	SpacedMask string
	// Workers bounds build parallelism (0 = all CPUs). The built
	// database is identical at any setting.
	Workers int
	// Scoring sets the alignment parameters used by searches.
	Scoring Scoring
}

// Scoring mirrors the local-alignment parameters: Match is a positive
// score, the others are non-negative penalties; a gap of length L costs
// GapOpen + L·GapExtend.
type Scoring struct {
	Match     int
	Mismatch  int
	GapOpen   int
	GapExtend int
}

func (s Scoring) internal() align.Scoring {
	return align.Scoring{Match: s.Match, Mismatch: s.Mismatch, GapOpen: s.GapOpen, GapExtend: s.GapExtend}
}

// DefaultScoring returns the classic +5/−4 nucleotide parameters with
// affine gaps.
func DefaultScoring() Scoring {
	d := align.DefaultScoring()
	return Scoring{Match: d.Match, Mismatch: d.Mismatch, GapOpen: d.GapOpen, GapExtend: d.GapExtend}
}

// DefaultBuildConfig returns the configuration used by the paper's
// headline experiments: 9-base intervals, no stopping. Every index
// stores its occurrence offsets.
func DefaultBuildConfig() BuildConfig {
	return BuildConfig{
		IntervalLength: 9,
		Scoring:        DefaultScoring(),
	}
}

// Database is a collection of immutable segments — (compressed
// sequence store, interval index) pairs over contiguous record ids —
// evaluated together by partitioned queries. It is safe for concurrent
// use: searches borrow scratch searchers from an internal pool and run
// against an atomic snapshot of the segment set, while writers
// (Append, Delete, Compact) build replacement segments off to the side
// and publish a new snapshot with one pointer swap. A search never
// blocks on a writer and a writer never waits for searches to drain.
// A database that came from disk (Open, OpenPaged) or was written to it
// (SaveSegmented) is bound to that directory, and every later write
// persists there before it is published.
type Database struct {
	// snap is the live segment-set snapshot. Readers Load it once per
	// operation and use that set throughout; writers publish replacement
	// sets under mu.
	snap atomic.Pointer[segment.Set]

	scoring align.Scoring

	// mu serialises layout mutations: Append, Delete, snapshot swaps,
	// SaveSegmented, compactor start/stop. Searches never take it.
	mu          sync.Mutex
	dir         string // directory this database persists to; "" = built in memory, never saved
	nextSeg     int    // next unused segment file number when dir != ""
	maxSegments int    // compaction trigger (see SetMaxSegments)
	retired     []*index.Index

	// compactMu serialises compaction work (the merge itself runs
	// outside mu so searches and appends proceed during it).
	compactMu sync.Mutex

	compactorStop chan struct{}
	compactorKick chan struct{}
	compactorWG   sync.WaitGroup

	// searchers pools *core.Searcher scratch for the current snapshot.
	// Writers swap d.snap; stale pooled searchers are detected by
	// comparing their snapshot token and dropped on checkout.
	searchers sync.Pool

	statsOnce sync.Once
	statsP    stats.Params
	statsErr  error
}

// getSearcher loads the current snapshot and checks out a searcher
// built for it. The returned set is the snapshot the searcher indexes —
// use it (not a fresh Load) for descriptions and significance so one
// search sees one consistent state.
//
// Callers must pair every checkout with putSearcher.
func (d *Database) getSearcher() (*core.Searcher, *segment.Set, error) {
	set := d.snap.Load()
	s, err := d.searcherFor(set)
	return s, set, err
}

// searcherFor checks a searcher for the given snapshot out of the pool,
// constructing one when the pool is empty or holds searchers built for
// a superseded snapshot.
//
// Callers must pair every checkout with putSearcher.
func (d *Database) searcherFor(set *segment.Set) (*core.Searcher, error) {
	if s, ok := d.searchers.Get().(*core.Searcher); ok && s.Snapshot() == any(set) {
		return s, nil
	}
	return core.NewSegmentedSearcher(set.CoreSegments(), set.Source(), d.scoring, set)
}

// putSearcher returns a searcher to the pool unless a writer has
// published a newer snapshot since it was checked out.
func (d *Database) putSearcher(s *core.Searcher) {
	if s.Snapshot() == any(d.snap.Load()) {
		d.searchers.Put(s)
	}
}

// publish swaps in a new snapshot. Callers hold d.mu.
func (d *Database) publish(set *segment.Set) {
	d.snap.Store(set)
	mSegments.Set(int64(set.Len()))
}

// kickCompactor nudges the background compactor, if one is running.
// Callers hold d.mu.
func (d *Database) kickCompactor() {
	if d.compactorKick == nil {
		return
	}
	select {
	case d.compactorKick <- struct{}{}:
	default:
	}
}

// Build constructs a database from records.
func Build(records []Record, cfg BuildConfig) (*Database, error) {
	var store db.Store
	for i, r := range records {
		codes, err := dna.Encode([]byte(r.Sequence))
		if err != nil {
			return nil, fmt.Errorf("nucleodb: record %d (%q): %w", i, r.Desc, err)
		}
		store.Add(r.Desc, codes)
	}
	return buildFromStore(&store, cfg)
}

// BuildFromFasta constructs a database from FASTA-format input,
// streaming records into the compressed store as they parse (peak
// memory is one record plus the store, not the whole text).
func BuildFromFasta(r io.Reader, cfg BuildConfig) (*Database, error) {
	fr := dna.NewFastaReader(r)
	var store db.Store
	for {
		rec, err := fr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("nucleodb: %w", err)
		}
		store.Add(rec.Desc, rec.Codes)
	}
	return buildFromStore(&store, cfg)
}

func buildFromStore(store *db.Store, cfg BuildConfig) (*Database, error) {
	idx, err := index.Build(store, index.Options{
		K:            cfg.IntervalLength,
		SpacedMask:   cfg.SpacedMask,
		StopFraction: cfg.StopFraction,
		Workers:      cfg.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("nucleodb: %w", err)
	}
	return newDatabase(store, idx, cfg.Scoring)
}

func newDatabase(store *db.Store, idx *index.Index, scoring Scoring) (*Database, error) {
	g, err := segment.New("", store, idx, 0)
	if err != nil {
		return nil, fmt.Errorf("nucleodb: %w", err)
	}
	set, err := segment.NewSet([]*segment.Segment{g})
	if err != nil {
		return nil, fmt.Errorf("nucleodb: %w", err)
	}
	return newDatabaseSet(set, scoring, "", 0)
}

// newDatabaseSet wraps a segment set as a Database. dir binds
// persistence ("" for in-memory); nextSeg is the next unused segment
// file number inside dir.
func newDatabaseSet(set *segment.Set, scoring Scoring, dir string, nextSeg int) (*Database, error) {
	d := &Database{
		scoring:     scoring.internal(),
		dir:         dir,
		nextSeg:     nextSeg,
		maxSegments: segment.DefaultMaxSegments,
	}
	searcher, err := core.NewSegmentedSearcher(set.CoreSegments(), set.Source(), d.scoring, set)
	if err != nil {
		return nil, fmt.Errorf("nucleodb: %w", err)
	}
	d.mu.Lock()
	d.publish(set)
	d.mu.Unlock()
	d.searchers.Put(searcher)
	return d, nil
}

// SaveSegmented writes the database into directory dir — one store and
// index file per segment plus a MANIFEST, the one on-disk layout — and
// binds the database to dir: from then on Append, Delete and Compact
// persist their changes there crash-safely (segment files land before
// the manifest references them; the manifest is replaced atomically).
// An unmodified OpenPaged database cannot be re-saved: its disk-backed
// segments have no in-memory postings to rewrite, so the call fails
// before any MANIFEST is written.
func (d *Database) SaveSegmented(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("nucleodb: save: %w", err)
	}
	old := d.snap.Load()
	segs := make([]*segment.Segment, old.Len())
	for i, g := range old.Segments() {
		segs[i] = g.Renamed(segment.SegName(i))
		if err := segment.WriteFiles(dir, segs[i]); err != nil {
			return fmt.Errorf("nucleodb: save: %w", err)
		}
	}
	set, err := segment.NewSet(segs)
	if err != nil {
		return fmt.Errorf("nucleodb: save: %w", err)
	}
	if err := segment.WriteManifest(dir, set, len(segs)); err != nil {
		return fmt.Errorf("nucleodb: save: %w", err)
	}
	segment.GC(dir, set)
	d.dir = dir
	d.nextSeg = len(segs)
	d.publish(set)
	return nil
}

// Open loads a database directory written by SaveSegmented (or
// cafe-build) fully into memory and binds the database to it: Append,
// Delete and Compact persist there. A directory without a MANIFEST is
// an error. Scoring is not persisted; pass the scheme searches should
// use (DefaultScoring for the usual parameters).
func Open(dir string, scoring Scoring) (*Database, error) {
	return openDir(dir, scoring, false)
}

// OpenPaged is Open with the indexes in paged (on-disk) mode: each
// segment's lexicon loads into memory but posting lists are read from
// disk per query — the operating regime for collections larger than
// memory, and the regime the original system was designed for. Call
// Close when done. Paged segments are read-only base segments: Append
// indexes new records as fresh in-memory segments on top of them and
// persists those to the directory, so incremental growth works in
// either mode.
func OpenPaged(dir string, scoring Scoring) (*Database, error) {
	return openDir(dir, scoring, true)
}

func openDir(dir string, scoring Scoring, paged bool) (*Database, error) {
	set, next, err := segment.OpenDir(dir, paged)
	if err != nil {
		return nil, fmt.Errorf("nucleodb: %w", err)
	}
	d, err := newDatabaseSet(set, scoring, dir, next)
	if err != nil {
		for _, g := range set.Segments() {
			g.Index.Close()
		}
		return nil, err
	}
	return d, nil
}

// Close stops the background compactor (if running) and releases
// resources held by paged segments, including disk-backed segments
// retired by compaction (see OpenPaged). It is a no-op for in-memory
// databases. No search may be in flight when Close is called.
func (d *Database) Close() error {
	d.StopCompactor()
	d.mu.Lock()
	retired := d.retired
	d.retired = nil
	set := d.snap.Load()
	d.mu.Unlock()
	var first error
	for _, idx := range retired {
		if err := idx.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, g := range set.Segments() {
		if err := g.Index.Close(); err != nil && first == nil { // teardown contract: Close runs after the caller has stopped issuing searches, so no reader holds this snapshot
			first = err
		}
	}
	return first
}

// CoarseMode selects how the coarse phase ranks sequences (the ablation
// of experiment E8). It reads and writes itself as text, by the names
// its String method prints, so the same words work in JSON, in
// cafe-search -coarse-mode and in the server's coarse_mode parameter.
type CoarseMode = core.CoarseMode

// The coarse rankings. CoarseDistinct, the zero value, is the paper's;
// CoarseDiagonal is the FRAMES-style densest-diagonal ranking, read from
// the occurrence offsets every index stores.
const (
	CoarseDistinct   = core.CoarseDistinct
	CoarseTotal      = core.CoarseTotal
	CoarseNormalised = core.CoarseNormalised
	CoarseDiagonal   = core.CoarseDiagonal
)

// SearchOptions controls one query evaluation. The JSON names are the
// wire names of cafe-serve's /search and /batch parameters; the fields
// marked "-" are not on the wire.
type SearchOptions struct {
	// Candidates is the coarse-phase budget: how many top-ranked
	// sequences receive fine alignment.
	Candidates int `json:"candidates"`
	// MinCoarseHits prunes sequences sharing fewer distinct intervals
	// with the query.
	MinCoarseHits int `json:"-"`
	// CoarseMode selects the coarse ranking; out-of-range values are
	// rejected.
	CoarseMode CoarseMode `json:"coarse_mode"`
	// Exact runs unrestricted Smith–Waterman in the fine phase instead
	// of the banded aligner: exact scores, higher cost.
	Exact bool `json:"exact"`
	// Band is the banded aligner's half-width when Exact is false.
	Band int `json:"band"`
	// MinScore discards alignments below this score.
	MinScore int `json:"minscore"`
	// Limit truncates the result list; 0 keeps everything.
	Limit int `json:"limit"`
	// BothStrands also searches the query's reverse complement and
	// reports each sequence's best strand.
	BothStrands bool `json:"strands"`
	// Prescreen, when positive, drops candidates whose ungapped
	// extension at the best shared interval scores below it, before
	// fine alignment — the three-phase evaluation of the production
	// CAFE design. 0 disables.
	Prescreen int `json:"prescreen"`
}

// DefaultSearchOptions returns the settings of the headline
// experiments, core.DefaultOptions: a banded fine phase over the
// coarse phase's top-ranked candidates.
func DefaultSearchOptions() SearchOptions {
	d := core.DefaultOptions()
	return SearchOptions{
		Candidates:    d.Candidates,
		MinCoarseHits: d.MinCoarseHits,
		CoarseMode:    d.CoarseMode,
		Exact:         d.FineMode == core.FineFull,
		Band:          d.Band,
		MinScore:      d.MinScore,
		Limit:         d.Limit,
		BothStrands:   d.BothStrands,
		Prescreen:     d.Prescreen,
	}
}

func (o SearchOptions) internal() core.Options {
	fine := core.FineBanded
	if o.Exact {
		fine = core.FineFull
	}
	return core.Options{
		Candidates:    o.Candidates,
		MinCoarseHits: o.MinCoarseHits,
		CoarseMode:    o.CoarseMode,
		FineMode:      fine,
		Band:          o.Band,
		MinScore:      o.MinScore,
		Limit:         o.Limit,
		BothStrands:   o.BothStrands,
		Prescreen:     o.Prescreen,
	}
}

// Validate reports the error a search with these options would fail
// with, or nil: the engine's own rules, for callers that want to refuse
// a configuration before serving with it.
func (o SearchOptions) Validate() error { return o.internal().Validate() }

// ErrInvalid marks a search error as the caller's: options Validate
// rejects, a query with letters outside the alphabet or shorter than the
// index's interval, a coarse mode the database was not built for. Every
// Search form preserves it through its wrapping, so a service can answer
// errors.Is(err, ErrInvalid) with "bad request" and everything else — a
// corrupt index, a failed disk read — with "server error".
var ErrInvalid = core.ErrInvalid

// Result is one answer to a search.
type Result struct {
	// ID is the record's position in the database (insertion order).
	ID int
	// Desc is the record's description line.
	Desc string
	// Score is the local alignment score under the database's scoring.
	Score int
	// Identity is the fraction of matching alignment columns. Both the
	// default (banded) and Exact fine phases produce transcripts for
	// reported results, so this is normally populated; it is 0 only
	// when no transcript exists: a score-0 result (reported only under
	// MinScore 0), or an Exact result whose traceback strip would
	// exceed 2^28 cells, which is reported with its score and end but
	// no transcript.
	Identity float64
	// QueryStart/QueryEnd and SubjectStart/SubjectEnd are the
	// half-open alignment spans, when available. For reverse-strand
	// matches the query spans refer to the reverse complement.
	QueryStart, QueryEnd     int
	SubjectStart, SubjectEnd int
	// Reverse marks a reverse-complement-strand match (BothStrands
	// searches only).
	Reverse bool
	// Bits is the Karlin–Altschul bit score and EValue the expected
	// number of chance alignments this good in a database of this
	// size: the significance measures search tools report. Both are 0
	// until the first call to Statistics succeeds (Search computes
	// them automatically).
	Bits   float64
	EValue float64
}

// SearchStats reports the work one search performed, stage by stage:
// the coarse phase's index traffic, the prescreen's filtering, the
// fine phase's dynamic programming, and the per-stage wall time. It is
// the engine's observability currency — cafe-search prints it behind
// -stats, cafe-bench emits it in its JSON report, and every search
// feeds the same numbers into the process-wide metrics registry.
type SearchStats = core.SearchStats

// Handles into the process-wide registry, fetched once: recording a
// search is a dozen uncontended atomic adds.
var (
	mSearches         = metrics.Default().Counter("searches_total")
	mPostingsDecoded  = metrics.Default().Counter("postings_decoded_total")
	mPostingsBytes    = metrics.Default().Counter("postings_bytes_read_total")
	mCoarseCandidates = metrics.Default().Counter("coarse_candidates_total")
	mPrescreenRejects = metrics.Default().Counter("prescreen_rejections_total")
	mFineAlignments   = metrics.Default().Counter("fine_alignments_total")
	mBitvectorAligns  = metrics.Default().Counter("fine_bitvector_alignments_total")
	mTracebacks       = metrics.Default().Counter("traceback_alignments_total")
	mDPCells          = metrics.Default().Counter("dp_cells_total")
	mResults          = metrics.Default().Counter("results_total")
	hSearchLatency    = metrics.Default().Histogram("search_latency")
	hCoarseLatency    = metrics.Default().Histogram("coarse_stage_latency")
	hFineLatency      = metrics.Default().Histogram("fine_stage_latency")
	// mSegments tracks the live snapshot's segment count (last
	// database to publish wins; processes serve one database).
	mSegments = metrics.Default().Gauge("segments_total")
)

// recordSearchMetrics folds one search's stats into the process-wide
// registry (see WriteMetrics).
func recordSearchMetrics(st SearchStats) {
	mSearches.Inc()
	mPostingsDecoded.Add(st.PostingsDecoded)
	mPostingsBytes.Add(st.PostingsBytesRead)
	mCoarseCandidates.Add(int64(st.CoarseCandidates))
	mPrescreenRejects.Add(int64(st.PrescreenRejections))
	mFineAlignments.Add(int64(st.FineAlignments))
	mBitvectorAligns.Add(int64(st.BitvectorAlignments))
	mTracebacks.Add(int64(st.TracebackAlignments))
	mDPCells.Add(st.DPCells())
	mResults.Add(int64(st.Results))
	hSearchLatency.Observe(st.TotalTime)
	hCoarseLatency.Observe(st.CoarseTime)
	hFineLatency.Observe(st.FineTime)
}

// WriteMetrics writes the process-wide metrics — totals and latency
// quantiles aggregated over every search this process ran, whichever
// Database ran it — as JSON.
func WriteMetrics(w io.Writer) error { return metrics.Default().WriteJSON(w) }

// WriteMetricsText writes the same process-wide metrics in a
// line-per-instrument text form.
func WriteMetricsText(w io.Writer) error { return metrics.Default().WriteText(w) }

// ResetMetrics zeroes the process-wide metrics.
func ResetMetrics() { metrics.Default().Reset() }

// PublishMetrics exposes the process-wide metrics through expvar under
// the name "nucleodb", for processes that serve an expvar endpoint.
// Idempotent.
func PublishMetrics() { metrics.PublishExpvar() }

// Search evaluates a query given as IUPAC letters and returns ranked
// answers.
func (d *Database) Search(query string, opts SearchOptions) ([]Result, error) {
	rs, _, err := d.SearchWithStats(query, opts)
	return rs, err
}

// SearchWithStats evaluates a query and also returns the per-stage
// work and latency breakdown of the evaluation. Results are identical
// to Search's (the stats collection only observes).
func (d *Database) SearchWithStats(query string, opts SearchOptions) ([]Result, SearchStats, error) {
	codes, err := dna.Encode([]byte(query))
	if err != nil {
		return nil, SearchStats{}, core.Invalid(fmt.Errorf("nucleodb: query: %w", err))
	}
	return d.SearchCodesWithStats(codes, opts)
}

// SearchCodes evaluates a query already in internal code form; callers
// holding dna codes (e.g. from another record) avoid a re-encode.
func (d *Database) SearchCodes(codes []byte, opts SearchOptions) ([]Result, error) {
	rs, _, err := d.SearchCodesWithStats(codes, opts)
	return rs, err
}

// SearchCodesWithStats is SearchWithStats for pre-encoded queries.
func (d *Database) SearchCodesWithStats(codes []byte, opts SearchOptions) ([]Result, SearchStats, error) {
	return d.SearchCodesWithStatsContext(context.Background(), codes, opts)
}

// SearchCodesWithStatsContext is the search entry point every other
// form reduces to: pre-encoded query, stats, and cooperative
// cancellation. When ctx is cancelled or its deadline passes, the
// evaluation stops at the next posting list (coarse phase) or candidate
// boundary (prescreen, fine alignment, traceback) and returns an error
// wrapping ctx.Err() — so a long Smith–Waterman fine phase does not run
// to completion after the caller has gone away. With
// context.Background() the results are identical to Search's.
func (d *Database) SearchCodesWithStatsContext(ctx context.Context, codes []byte, opts SearchOptions) ([]Result, SearchStats, error) {
	searcher, set, err := d.getSearcher()
	if err != nil {
		return nil, SearchStats{}, fmt.Errorf("nucleodb: %w", err)
	}
	defer d.putSearcher(searcher)
	return d.searchOn(ctx, searcher, set, codes, opts)
}

// searchOn is SearchCodesWithStatsContext on a searcher already checked
// out for set.
func (d *Database) searchOn(ctx context.Context, searcher *core.Searcher, set *segment.Set, codes []byte, opts SearchOptions) ([]Result, SearchStats, error) {
	var st SearchStats
	rs, err := searcher.SearchWithStatsContext(ctx, codes, opts.internal(), &st)
	if err != nil {
		return nil, SearchStats{}, fmt.Errorf("nucleodb: %w", err)
	}
	recordSearchMetrics(st)
	return d.results(set, rs, len(codes)), st, nil
}

// results is the one core → facade conversion: it names each record
// from set — the snapshot the results were computed on — copies the
// alignment span, and fills Bits and EValue for a query of queryLen
// bases when the scoring scheme admits Karlin–Altschul statistics.
func (d *Database) results(set *segment.Set, rs []core.Result, queryLen int) []Result {
	params, statsErr := d.Statistics()
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{
			ID:           r.ID,
			Desc:         set.Desc(r.ID),
			Score:        r.Score,
			Identity:     r.Alignment.Identity(),
			QueryStart:   r.Alignment.AStart,
			QueryEnd:     r.Alignment.AEnd,
			SubjectStart: r.Alignment.BStart,
			SubjectEnd:   r.Alignment.BEnd,
			Reverse:      r.Reverse,
		}
		if statsErr == nil {
			out[i].Bits = params.BitScore(r.Score)
			out[i].EValue = params.EValue(r.Score, queryLen, set.TotalBases())
		}
	}
	return out
}

// Statistics returns the Karlin–Altschul parameters for the database's
// scoring scheme, computed on first use by gapped simulation (the
// search reports gapped scores, so gapped calibration is the honest
// one; see stats.EstimateGapped). An error means the scoring scheme
// admits no local alignment statistics (e.g. non-negative expected
// score); Search then leaves Bits and EValue zero.
func (d *Database) Statistics() (stats.Params, error) {
	d.statsOnce.Do(func() {
		d.statsP, d.statsErr = stats.EstimateGappedCached(d.scoring, stats.Uniform, stats.DefaultEstimateOptions())
	})
	return d.statsP, d.statsErr
}

// Alignment renders the optimal local alignment of a query against one
// stored record in the conventional three-line blocks, computed in
// linear space so record length is not a concern:
//
//	score 240, identity 96% (48/50), gaps 1
//	Query      1  ACGTACGT-ACGT ...
//	              |||| |||  |||
//	Sbjct     41  ACGTTCGTNACGT ...
func (d *Database) Alignment(query string, id int) (string, error) {
	codes, err := dna.Encode([]byte(query))
	if err != nil {
		return "", fmt.Errorf("nucleodb: query: %w", err)
	}
	set := d.snap.Load()
	if err := checkLive(set, id); err != nil {
		return "", err
	}
	subject := set.Sequence(id)
	al := align.LocalLinear(codes, subject, d.scoring)
	return align.Format(codes, subject, al, 60), nil
}

// checkLive reports why record id cannot be aligned against: out of
// range, or deleted. A tombstoned record's bases stay in its segment
// until compaction folds it and leaves an empty stub; refusing both
// states keeps the answer the same before and after that happens (a
// record stored empty is indistinguishable from a stub and has nothing
// to align against either).
func checkLive(set *segment.Set, id int) error {
	if id < 0 || id >= set.NumSeqs() {
		return fmt.Errorf("nucleodb: record id %d out of range [0,%d)", id, set.NumSeqs())
	}
	if set.Deleted(id) || set.SeqLen(id) == 0 {
		return fmt.Errorf("nucleodb: record id %d is deleted", id)
	}
	return nil
}

// Append adds records to the database incrementally: the batch is
// encoded and indexed as one new segment and published with a snapshot
// swap, so the cost is proportional to the batch — the existing
// segments (in-memory or paged) are never touched. Searches running
// concurrently are unaffected; they finish against the snapshot they
// started with. When the database is bound to a directory
// (SaveSegmented, or opened from one), the new segment is persisted
// crash-safely before the swap.
//
// Appends accumulate segments; a background compactor (StartCompactor)
// or explicit Compact calls fold them back down. Stopping decisions
// are per-segment; rebuild from scratch to re-stop globally.
func (d *Database) Append(records []Record) error {
	var store db.Store
	for i, r := range records {
		codes, err := dna.Encode([]byte(r.Sequence))
		if err != nil {
			return fmt.Errorf("nucleodb: record %d (%q): %w", i, r.Desc, err)
		}
		store.Add(r.Desc, codes)
	}
	if store.Len() == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	idx, err := index.Build(&store, old.Options())
	if err != nil {
		return fmt.Errorf("nucleodb: append: %w", err)
	}
	var name string
	if d.dir != "" {
		name = segment.SegName(d.nextSeg)
	}
	g, err := segment.New(name, &store, idx, old.NumSeqs())
	if err != nil {
		return fmt.Errorf("nucleodb: append: %w", err)
	}
	segs := append(append([]*segment.Segment{}, old.Segments()...), g)
	set, err := segment.NewSet(segs)
	if err != nil {
		return fmt.Errorf("nucleodb: append: %w", err)
	}
	if d.dir != "" {
		if err := segment.WriteFiles(d.dir, g); err != nil {
			return fmt.Errorf("nucleodb: append: %w", err)
		}
		d.nextSeg++
		if err := segment.WriteManifest(d.dir, set, d.nextSeg); err != nil {
			// The orphaned segment files are garbage-collected on the
			// next successful open or compaction.
			return fmt.Errorf("nucleodb: append: %w", err)
		}
	}
	d.publish(set)
	d.kickCompactor()
	return nil
}

// Delete tombstones records by global id: they disappear from search
// results immediately, and their sequence data and postings are
// reclaimed when compaction next folds their segment (descriptions
// survive as empty stubs, so ids never renumber). Significance
// statistics use the live database size, so surviving results score
// identically before and after the physical reclaim. When the database
// is bound to a directory the tombstones persist in the manifest.
func (d *Database) Delete(ids ...int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.snap.Load()
	for _, id := range ids {
		if id < 0 || id >= old.NumSeqs() {
			return fmt.Errorf("nucleodb: record id %d out of range [0,%d)", id, old.NumSeqs())
		}
	}
	bySeg := make(map[int][]int)
	for _, id := range ids {
		si, local := old.Locate(id)
		bySeg[si] = append(bySeg[si], local)
	}
	segs := append([]*segment.Segment{}, old.Segments()...)
	for si, locals := range bySeg {
		g, err := segs[si].WithDeleted(locals)
		if err != nil {
			return fmt.Errorf("nucleodb: delete: %w", err)
		}
		segs[si] = g
	}
	set, err := segment.NewSet(segs)
	if err != nil {
		return fmt.Errorf("nucleodb: delete: %w", err)
	}
	if d.dir != "" {
		if err := segment.WriteManifest(d.dir, set, d.nextSeg); err != nil {
			return fmt.Errorf("nucleodb: delete: %w", err)
		}
	}
	d.publish(set)
	return nil
}

// SetMaxSegments sets the compaction trigger: Compact (and the
// background compactor) folds segments while the set holds more than
// n. The default is segment.DefaultMaxSegments; 1 compacts fully to a
// single segment. Values below 1 are treated as 1.
func (d *Database) SetMaxSegments(n int) {
	if n < 1 {
		n = 1
	}
	d.mu.Lock()
	d.maxSegments = n
	d.kickCompactor()
	d.mu.Unlock()
}

// NumSegments returns the number of segments in the current snapshot.
func (d *Database) NumSegments() int { return d.snap.Load().Len() }

// NumDeleted returns the number of tombstoned records not yet
// reclaimed by compaction.
func (d *Database) NumDeleted() int { return d.snap.Load().NumDeleted() }

// IsDeleted reports whether record id is tombstoned.
func (d *Database) IsDeleted(id int) bool { return d.snap.Load().Deleted(id) }

// Compact folds one run of adjacent segments chosen by the size-tiered
// policy into a single segment, reclaiming the tombstones inside that
// run, and returns how many segments it folded — 0 when the snapshot
// holds at most SetMaxSegments segments. The policy counts segments
// only: tombstones in a segment no run covers wait until one does.
// Call it in a loop (or use StartCompactor) to fold fully.
//
// The merge runs outside the writer lock, so searches and appends
// proceed while it works; the swap revalidates that the merged run is
// still live (a concurrent Delete replaces segment values) and gives
// up harmlessly if not. Concurrent Compact calls serialise. When the
// database is bound to a directory the new segment and manifest are
// written crash-safely before the swap, and superseded files are
// removed after.
func (d *Database) Compact() (int, error) {
	d.compactMu.Lock()
	defer d.compactMu.Unlock()

	d.mu.Lock()
	maxSegments := d.maxSegments
	d.mu.Unlock()
	set := d.snap.Load()
	segs := set.Segments()
	lo, hi := segment.PickRun(segs, maxSegments)
	if lo < 0 {
		return 0, nil
	}
	run := segs[lo:hi]

	var name string
	if d.dir != "" {
		d.mu.Lock()
		name = segment.SegName(d.nextSeg)
		d.nextSeg++
		d.mu.Unlock()
	}
	merged, err := segment.MergeRun(name, run)
	if err != nil {
		return 0, fmt.Errorf("nucleodb: compact: %w", err)
	}
	if d.dir != "" {
		if err := segment.WriteFiles(d.dir, merged); err != nil {
			segment.RemoveFiles(d.dir, name)
			return 0, fmt.Errorf("nucleodb: compact: %w", err)
		}
	}

	d.mu.Lock()
	cur := d.snap.Load()
	curSegs := cur.Segments()
	live := len(curSegs) >= hi
	for i := lo; live && i < hi; i++ {
		live = curSegs[i] == segs[i]
	}
	if !live {
		// A concurrent Delete replaced a segment in the run after we
		// merged it; swapping now would resurrect the deleted records.
		// Abandon this output — the next Compact re-picks.
		d.mu.Unlock()
		if d.dir != "" {
			segment.RemoveFiles(d.dir, name)
		}
		return 0, nil
	}
	newSegs := make([]*segment.Segment, 0, len(curSegs)-(hi-lo)+1)
	newSegs = append(newSegs, curSegs[:lo]...)
	newSegs = append(newSegs, merged)
	newSegs = append(newSegs, curSegs[hi:]...)
	newSet, err := segment.NewSet(newSegs)
	if err != nil {
		d.mu.Unlock()
		if d.dir != "" {
			segment.RemoveFiles(d.dir, name)
		}
		return 0, fmt.Errorf("nucleodb: compact: %w", err)
	}
	if d.dir != "" {
		if err := segment.WriteManifest(d.dir, newSet, d.nextSeg); err != nil {
			// Do NOT remove the merged segment's files here: the failure
			// may have struck after the manifest rename, in which case
			// the new manifest already references them. Unreferenced
			// files are garbage-collected on the next open instead.
			d.mu.Unlock()
			return 0, fmt.Errorf("nucleodb: compact: %w", err)
		}
	}
	for _, g := range run {
		if g.Index.Disk() {
			// Keep superseded disk-backed indexes open until Close: a
			// search may still hold a snapshot that reads them.
			d.retired = append(d.retired, g.Index)
		}
	}
	d.publish(newSet)
	d.mu.Unlock()
	if d.dir != "" {
		segment.GC(d.dir, newSet)
	}
	return hi - lo, nil
}

// StartCompactor launches the background compactor: a goroutine that
// folds segments (repeated Compact calls) whenever the snapshot
// exceeds the SetMaxSegments trigger — after every Append, and once at
// start. onErr, when non-nil, receives compaction errors; the
// compactor keeps running after reporting one. Idempotent while
// running. StopCompactor (or Close) stops it and waits for it to
// finish.
func (d *Database) StartCompactor(onErr func(error)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.compactorStop != nil {
		return
	}
	stop := make(chan struct{})
	kick := make(chan struct{}, 1)
	d.compactorStop, d.compactorKick = stop, kick
	d.compactorWG.Add(1)
	go func() {
		defer d.compactorWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-kick:
				for {
					select {
					case <-stop:
						return
					default:
					}
					n, err := d.Compact()
					if err != nil {
						if onErr != nil {
							onErr(err)
						}
						break
					}
					if n == 0 {
						break
					}
				}
			}
		}
	}()
	d.kickCompactor()
}

// StopCompactor stops the background compactor and waits for any
// in-flight compaction to finish. No-op when none is running.
func (d *Database) StopCompactor() {
	d.mu.Lock()
	stop := d.compactorStop
	d.compactorStop, d.compactorKick = nil, nil
	d.mu.Unlock()
	if stop == nil {
		return
	}
	close(stop)
	d.compactorWG.Wait()
}

// HSPs returns up to max high-scoring segment pairs of the query
// against one record, best-first and pairwise disjoint in the subject
// — the view search tools give when a query matches a record in
// several places. Each returned Result carries spans, identity, and
// significance; minScore prunes noise-level segments.
func (d *Database) HSPs(query string, id, max, minScore int) ([]Result, error) {
	codes, err := dna.Encode([]byte(query))
	if err != nil {
		return nil, fmt.Errorf("nucleodb: query: %w", err)
	}
	set := d.snap.Load()
	if err := checkLive(set, id); err != nil {
		return nil, err
	}
	als := align.LocalAll(codes, set.Sequence(id), d.scoring, minScore, max)
	rs := make([]core.Result, len(als))
	for i, al := range als {
		rs[i] = core.Result{ID: id, Score: al.Score, Alignment: al}
	}
	return d.results(set, rs, len(codes)), nil
}

// NumSequences returns the number of records in the database,
// tombstoned records included (ids stay dense and stable).
func (d *Database) NumSequences() int { return d.snap.Load().NumSeqs() }

// TotalBases returns the number of bases across all live
// (non-tombstoned) records.
func (d *Database) TotalBases() int { return d.snap.Load().TotalBases() }

// Sequence returns record id's sequence as IUPAC letters; a deleted
// record's is "", before and after compaction reclaims its bases.
func (d *Database) Sequence(id int) string {
	set := d.snap.Load()
	if set.Deleted(id) {
		return ""
	}
	return dna.String(set.Sequence(id))
}

// Desc returns record id's description.
func (d *Database) Desc(id int) string { return d.snap.Load().Desc(id) }

// Stats summarises database storage. Byte and term counts are summed
// over segments.
type Stats struct {
	NumSequences  int
	TotalBases    int
	Segments      int // segments in the current snapshot
	Deleted       int // tombstoned records awaiting compaction
	StoreBytes    int // compressed sequence data
	IndexBytes    int // lexicon + postings + tables
	PostingsBytes int
	TermsIndexed  int
	TermsStopped  int
	IntervalLen   int
}

// Stats returns storage and index statistics.
func (d *Database) Stats() Stats {
	set := d.snap.Load()
	st := Stats{
		NumSequences: set.NumSeqs(),
		TotalBases:   set.TotalBases(),
		Segments:     set.Len(),
		Deleted:      set.NumDeleted(),
		IntervalLen:  set.Segments()[0].Index.K(),
	}
	for _, g := range set.Segments() {
		st.StoreBytes += g.Store.EncodedBytes()
		st.IndexBytes += g.Index.SizeBytes()
		st.PostingsBytes += g.Index.PostingsBytes()
		st.TermsIndexed += g.Index.NumTermsIndexed()
		st.TermsStopped += g.Index.NumStopped()
	}
	return st
}

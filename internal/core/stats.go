package core

import "time"

// SearchStats counts the work one Search performed, stage by stage.
// Every search counts and clocks — there is one path, so the numbers
// describe the search that produced the answers; SearchWithStatsContext
// writes them into the caller's struct. Counting is allocation-free
// (the struct lives wherever the caller put it, the pipeline only
// increments fields).
//
// The counters map directly onto the paper's cost model: the coarse
// phase pays PostingsDecoded posting decodes to rank CoarseSequences
// sequences, and only CoarseCandidates of them — a fixed budget,
// independent of collection size — reach the dynamic programming that
// dominates exhaustive search, whose size FineDPCells measures.
type SearchStats struct {
	// Strands is 1, or 2 for a BothStrands search (every per-strand
	// counter then accumulates over both orientations).
	Strands int `json:"strands"`
	// QueryTerms is the number of distinct query intervals extracted.
	QueryTerms int `json:"query_terms"`
	// PostingLists is the number of non-empty posting lists read.
	PostingLists int `json:"posting_lists"`
	// PostingsDecoded is the number of posting entries decoded across
	// those lists — the coarse phase's unit of work.
	PostingsDecoded int64 `json:"postings_decoded"`
	// PostingsBytesRead is the compressed size of the lists read; on a
	// paged index this is bytes fetched from disk.
	PostingsBytesRead int64 `json:"postings_bytes_read"`
	// CoarseSequences is the number of distinct sequences the coarse
	// accumulator touched (candidates before MinCoarseHits and the
	// budget).
	CoarseSequences int `json:"coarse_sequences"`
	// CoarseCandidates is the number of candidates admitted past the
	// coarse phase — the sequences that may receive fine alignment.
	CoarseCandidates int `json:"coarse_candidates"`
	// Segments is the number of index segments the coarse phase
	// evaluated, summed over strands: the segment count of the searcher's
	// snapshot per strand (so a both-strands search over 3 segments
	// reports 6).
	Segments int `json:"segments"`
	// PrescreenRejections is the number of candidates the ungapped
	// x-drop prescreen discarded before fine alignment (including
	// candidates with no shared seed to extend).
	PrescreenRejections int `json:"prescreen_rejections"`
	// FineAlignments is the number of fine-phase alignments run; at
	// most CoarseCandidates.
	FineAlignments int `json:"fine_alignments"`
	// BitvectorAlignments is the number of fine alignments the
	// bit-parallel striped kernel scored: every FineFull alignment
	// whose pair fits its 16-bit lanes, whether it finished in byte
	// lanes or widened to them (the rest took the scalar capacity
	// fallback), none under FineBanded. Always ≤ FineAlignments.
	BitvectorAlignments int `json:"bitvector_alignments"`
	// TracebackAlignments is the number of deferred tracebacks run for
	// reported results.
	TracebackAlignments int `json:"traceback_alignments"`
	// FineDPCells and TracebackDPCells are the dynamic-programming
	// cells those alignments evaluated — the paper's "fraction of the
	// database aligned", in cells. A traceback is billed the band or
	// strip it traced, plus a whole matrix when a FineFull result's best
	// cells tie across end columns and the scalar forward pass reruns to
	// find which one align.Local ends at.
	FineDPCells      int64 `json:"fine_dp_cells"`
	TracebackDPCells int64 `json:"traceback_dp_cells"`
	// Results is the number of answers returned.
	Results int `json:"results"`

	// Per-stage wall time. CoarseTime, FineTime, TracebackTime and
	// TotalTime are disjoint-interval wall clocks, so the first three
	// sum to at most TotalTime (the remainder is ranking, merging and
	// result assembly). PrescreenTime is a subset of FineTime measured
	// per candidate; with FineWorkers > 1 it sums across workers and
	// may exceed the fine phase's wall time.
	CoarseTime    time.Duration `json:"coarse_ns"`
	PrescreenTime time.Duration `json:"prescreen_ns"`
	FineTime      time.Duration `json:"fine_ns"`
	TracebackTime time.Duration `json:"traceback_ns"`
	TotalTime     time.Duration `json:"total_ns"`
}

// Reset zeroes every counter and duration.
func (st *SearchStats) Reset() { *st = SearchStats{} }

// Add accumulates o into st field by field, for aggregating many
// queries (batch evaluation, benchmark suites).
func (st *SearchStats) Add(o SearchStats) {
	st.Strands += o.Strands
	st.QueryTerms += o.QueryTerms
	st.PostingLists += o.PostingLists
	st.PostingsDecoded += o.PostingsDecoded
	st.PostingsBytesRead += o.PostingsBytesRead
	st.CoarseSequences += o.CoarseSequences
	st.CoarseCandidates += o.CoarseCandidates
	st.Segments += o.Segments
	st.PrescreenRejections += o.PrescreenRejections
	st.FineAlignments += o.FineAlignments
	st.BitvectorAlignments += o.BitvectorAlignments
	st.TracebackAlignments += o.TracebackAlignments
	st.FineDPCells += o.FineDPCells
	st.TracebackDPCells += o.TracebackDPCells
	st.Results += o.Results
	st.CoarseTime += o.CoarseTime
	st.PrescreenTime += o.PrescreenTime
	st.FineTime += o.FineTime
	st.TracebackTime += o.TracebackTime
	st.TotalTime += o.TotalTime
}

// DPCells returns the total dynamic-programming cells evaluated (fine
// phase plus tracebacks).
func (st *SearchStats) DPCells() int64 { return st.FineDPCells + st.TracebackDPCells }

// StageTime returns the sum of the disjoint stage wall clocks; always
// ≤ TotalTime.
func (st *SearchStats) StageTime() time.Duration {
	return st.CoarseTime + st.FineTime + st.TracebackTime
}

// Package align implements the local-alignment string matching the
// system uses as its answer semantics: Smith–Waterman local alignment
// (full dynamic programming with traceback, score-only linear space, and
// banded variants with affine gap penalties) and the ungapped x-drop
// extension used by the BLAST-style baseline.
package align

import (
	"fmt"
	"sync"

	"nucleodb/internal/dna"
)

// Scoring holds nucleotide alignment parameters. Penalties are
// expressed as non-negative numbers and subtracted; an affine gap of
// length L costs GapOpen + L×GapExtend.
type Scoring struct {
	Match     int // score for matching bases (> 0)
	Mismatch  int // penalty for mismatching bases (≥ 0)
	GapOpen   int // penalty for opening a gap (≥ 0)
	GapExtend int // penalty for each gap position (> 0)
}

// DefaultScoring returns the FASTA-style nucleotide parameters used
// throughout the experiments: +5/−4 substitution scores with affine
// gaps, the classic settings for DNA database search.
func DefaultScoring() Scoring {
	return Scoring{Match: 5, Mismatch: 4, GapOpen: 10, GapExtend: 2}
}

// Validate reports whether the scoring scheme is usable.
func (s Scoring) Validate() error {
	if s.Match <= 0 {
		return fmt.Errorf("align: match score %d must be positive", s.Match)
	}
	if s.Mismatch < 0 || s.GapOpen < 0 {
		return fmt.Errorf("align: penalties must be non-negative: mismatch %d, gap open %d", s.Mismatch, s.GapOpen)
	}
	if s.GapExtend <= 0 {
		return fmt.Errorf("align: gap extend %d must be positive", s.GapExtend)
	}
	return nil
}

// Masked is a pseudo-code that never matches anything, not even
// itself. The repeated-alignment search (LocalAll) overwrites already
// reported subject regions with it so later passes find disjoint
// alignments.
const Masked byte = 0xFF

// Score returns the substitution score for aligning codes a and b.
// Wildcards score as matches when their ambiguity sets intersect, so N
// aligns neutrally against anything, matching how search tools treat
// ambiguity codes. Codes outside the nucleotide alphabet (such as
// Masked) always score as mismatches.
func (s Scoring) Score(a, b byte) int {
	if a >= dna.NumCodes || b >= dna.NumCodes {
		return -s.Mismatch
	}
	if a == b || (a >= dna.NumBases || b >= dna.NumBases) && dna.Matches(a, b) {
		return s.Match
	}
	return -s.Mismatch
}

// Subst is a Scoring compiled for the scalar kernels' inner loops: the
// substitution scores as one table row per query code — so a DP row
// picks its row once and every cell is a single indexed load instead of
// a Score call — and the gap penalties as int32. A Subst is immutable
// once built and safe for concurrent use; a searcher builds one per
// Scoring.
type Subst struct {
	scoring      Scoring
	openExt, ext int32
	// tab[a][b] == scoring.Score(a, b). The last row answers for every
	// query byte outside the alphabet (Masked, junk): all mismatches.
	tab substTable
}

// substTable is Subst's table: a row of 256 scores per query code, and
// one more for every byte outside the alphabet.
type substTable = [dna.NumCodes + 1][256]int32

// NewSubst compiles s.
func NewSubst(s Scoring) *Subst {
	t := new(Subst)
	t.build(s)
	return t
}

func (t *Subst) build(s Scoring) {
	t.scoring = s
	t.openExt = int32(s.GapOpen + s.GapExtend)
	t.ext = int32(s.GapExtend)
	for a := range t.tab {
		for b := range t.tab[a] {
			t.tab[a][b] = int32(s.Score(byte(a), byte(b)))
		}
	}
}

// row returns the substitution scores of query code a against every
// subject byte; indexing it with a byte needs no bounds check.
func (t *Subst) row(a byte) *[256]int32 { return tableRow(&t.tab, a) }

// tableRow returns tab's row for query code a.
func tableRow(tab *substTable, a byte) *[256]int32 {
	if a > dna.NumCodes {
		a = dna.NumCodes
	}
	return &tab[a]
}

// kernel is what a Scoring-taking entry point (Local, LocalScore,
// BandedLocal, BandedLocalScore) needs for one call: the compiled
// scoring and the banded scratch. Pooled, so one-shot callers — the
// baselines, the benchmarks, the tests — neither recompile the table
// nor reallocate rows per call; a kernel built for another Scoring is
// recompiled in place.
type kernel struct {
	subst  Subst
	banded BandedScratch
}

var kernels = sync.Pool{New: func() any {
	k := new(kernel)
	k.subst.build(DefaultScoring())
	return k
}}

// getKernel checks a kernel compiled for s out of the pool; the caller
// returns it with kernels.Put.
func getKernel(s Scoring) *kernel {
	k := kernels.Get().(*kernel)
	if k.subst.scoring != s {
		k.subst.build(s)
	}
	return k
}

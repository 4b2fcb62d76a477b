package align

// LocalScore computes the Smith–Waterman local alignment score of a and
// b with affine gaps (Gotoh's algorithm) in O(len(a)·len(b)) time and
// O(len(a)+len(b)) space. It returns the best score and the (exclusive) end
// positions of the best-scoring local alignment in a and b.
//
// This is the exhaustive-search workhorse: the full-scan baseline calls
// it once per database sequence. Rows are scanned outermost, so of
// several best cells the end is the one in the smallest query row, then
// the smallest subject column.
func LocalScore(a, b []byte, s Scoring) (score, aEnd, bEnd int) {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.LocalScore(a, b, &k.banded)
}

// LocalScore is the package-level function on a compiled scoring and
// caller-owned scratch; it allocates nothing once sc has grown. It is
// the banded score pass over a band of every diagonal from −len(a) to
// len(b), which is the whole matrix: each row runs on the banded row
// route (scoreRow, or eight cells to a YMM register on AVX2), and the
// best cell is the first in row-major order, as above. The rows it
// grows in sc are len(a)+len(b) cells wide.
func (t *Subst) LocalScore(a, b []byte, sc *BandedScratch) (score, aEnd, bEnd int) {
	band := (len(a) + len(b)) / 2 // 2·band+1 ≥ len(a)+len(b) diagonals
	return t.BandedLocalScore(a, b, band-len(a), band, sc)
}

// op is one traceback column type.
type op = byte

// Traceback operations. OpMatch consumes a position of both sequences
// (match or mismatch); OpAGap consumes b only (a gap in the query);
// OpBGap consumes a only (a gap in the subject).
const (
	OpMatch op = 'M'
	OpAGap  op = 'a'
	OpBGap  op = 'b'
)

// Alignment is a scored local alignment between sequences a (query) and
// b (subject), with half-open spans into each and the edit transcript.
type Alignment struct {
	Score  int
	AStart int // query span [AStart, AEnd)
	AEnd   int
	BStart int // subject span [BStart, BEnd)
	BEnd   int
	// Ops is the transcript from (AStart,BStart) to (AEnd,BEnd) as
	// OpMatch/OpAGap/OpBGap columns. Empty for score-only alignments.
	Ops []byte

	// Matches counts the transcript's OpMatch columns whose bases
	// score as a match.
	Matches int
}

// Identity returns the fraction of transcript columns that are matches,
// 0 when there is no transcript.
func (al *Alignment) Identity() float64 {
	n := len(al.Ops)
	if n == 0 {
		return 0
	}
	return float64(al.Matches) / float64(n)
}

// maxCells bounds the traceback's direction matrix: alignments whose
// matrix would exceed this many bytes fall back to score-only results.
const maxCells = 1 << 28

// Direction-byte layout for the traceback matrix: two bits for the H
// source plus one extension flag each for the E (vertical) and F
// (horizontal) gap states.
const (
	hFromNone = 0
	hFromDiag = 1
	hFromE    = 2
	hFromF    = 3
	hMask     = 3
	eExtend   = 4 // e[i][j] continued from e[i-1][j]
	fExtend   = 8 // f[i][j] continued from f[i][j-1]
)

// Local computes the Smith–Waterman local alignment of a and b with an
// exact affine-gap traceback: the best-scoring alignment ending at the
// smallest query row, then subject column, ties on the way back resolved
// open over extend and diagonal over vertical over horizontal gap. It is
// LocalScore's forward pass plus LocalEndingAt's traceback over a strip,
// so memory is one byte per strip cell. A strip over maxCells bytes
// degrades to a score-only result with empty transcript and point spans
// at the alignment end. The strip's size follows from how far the score
// falls short of a perfect match (traceStrip), not from the subject's
// length; a matrix under 2²⁸ cells degrades only for a query of some
// 7 000 bases or more whose hit is worth a small fraction of its length,
// in a subject about five times as long.
func Local(a, b []byte, s Scoring) Alignment {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.Local(a, b, &k.banded)
}

// Local is the package-level function on a compiled scoring and
// caller-owned scratch; its only allocation is the returned transcript.
func (t *Subst) Local(a, b []byte, sc *BandedScratch) Alignment {
	score, aEnd, bEnd := t.LocalScore(a, b, sc)
	return t.LocalEndingAt(a, b, score, aEnd, bEnd, sc)
}

// LocalEndingAt returns Local(a, b) for a caller whose score pass knows
// its score and where it ends: at cell (aEnd, bEnd) as LocalScore reports
// it, or — aEnd 0 — somewhere in subject column bEnd, which must then
// hold every cell of that score (StripedProfile.Score's unique). It runs
// BandedLocal over traceStrip, which contains every alignment of that
// score ending there. Restricting the DP to a region only lowers cells
// and leaves H, E and F exact along alignments inside it, so the first
// best cell in the strip is Local's end cell, and on the way back from
// it the full matrix's winning move is still exact while its rivals are
// no larger: BandedLocal, which breaks ties as Local does, takes it.
func (t *Subst) LocalEndingAt(a, b []byte, score, aEnd, bEnd int, sc *BandedScratch) Alignment {
	if score <= 0 {
		return Alignment{}
	}
	rows, centre, band, ok := t.traceStrip(len(a), score, aEnd, bEnd)
	if !ok {
		if aEnd == 0 {
			_, aEnd, _ = t.LocalScore(a, b[:bEnd], sc)
		}
		return Alignment{Score: score, AStart: aEnd, AEnd: aEnd, BStart: bEnd, BEnd: bEnd}
	}
	return t.BandedLocal(a[:rows], b[:bEnd], centre, band, sc)
}

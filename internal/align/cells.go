package align

// Cell accounting for the observability pipeline: the searcher reports
// how many dynamic-programming cells each fine-phase alignment
// evaluated, and these helpers compute that count without touching the
// aligners' inner loops — instrumentation must not perturb them.

// LocalCells returns the number of DP cells a full-matrix score pass
// (LocalScore, StripedProfile.Score, Local's forward half) evaluates for
// sequences of length la and lb: the la×lb matrix.
func LocalCells(la, lb int) int64 {
	if la <= 0 || lb <= 0 {
		return 0
	}
	return int64(la) * int64(lb)
}

// BandedCells returns the number of DP cells BandedLocalScore (and
// BandedLocal) evaluate for sequences of length la and lb with the
// given band centre and half-width: the intersection of the diagonal
// strip centre±band with the matrix, mirroring the aligner's row
// clipping exactly. Over the rows the band meets, it sums each row's
// clipped right end less its clipped left end, as two clamped
// arithmetic series, so its cost does not grow with la.
func BandedCells(la, lb, centre, band int) int64 {
	if la <= 0 || lb <= 0 || band < 0 {
		return 0
	}
	lo, width := centre-band, 2*band+1
	first, end := bandRows(la, lb, lo, width)
	if first >= end {
		return 0
	}
	// Row i spans [max(i+lo, 0), min(i+lo+width, lb)): the right end is
	// lb from row lb−lo−width on, the left end 0 up to row −lo.
	right := min(max(lb-lo-width, first), end)
	left := min(max(-lo, first), end)
	return series(first, right, lo+width) + int64(end-right)*int64(lb) - series(left, end, lo)
}

// series returns the sum of i+c over i in [a, b).
func series(a, b, c int) int64 {
	n := int64(b - a)
	return n*(int64(a)+int64(b)-1)/2 + n*int64(c)
}

// traceStrip is the region LocalEndingAt traces for an alignment of the
// given score ending in subject column bEnd at query row aEnd, or at any
// row when aEnd is 0: query rows [0, rows) on the diagonals centre±band,
// cut at column bEnd. Such an alignment ends between row ⌈score/Match⌉
// (it needs that many diagonal columns) and row rows, and has at most
// g = ⌊(Match·rows − score − GapOpen)/GapExtend⌋ gap columns, since its
// diagonal columns number at most rows and score at most Match each (an
// N wildcard scores Match, Masked −Mismatch); its cells lie within g
// diagonals of its end cell's. ok is false when the strip's direction
// bytes would exceed maxCells.
func (t *Subst) traceStrip(la, score, aEnd, bEnd int) (rows, centre, band int, ok bool) {
	s := t.scoring
	rows, first := aEnd, aEnd
	if aEnd == 0 {
		rows, first = la, (score+s.Match-1)/s.Match
	}
	g := max((s.Match*rows-score-s.GapOpen)/s.GapExtend, 0)
	// Diagonals (j−i of 0-based cell (i, j)) clipped to the matrix's own.
	lo := max(bEnd-rows-g, 1-rows)
	hi := min(bEnd-first+g, bEnd-1)
	band = (hi - lo + 1) / 2
	return rows, lo + band, band, int64(rows)*int64(2*band+1) <= maxCells
}

// TraceCells returns the number of DP cells LocalEndingAt evaluates for
// a query of length la: BandedCells of the strip, 0 when it traces none.
func (t *Subst) TraceCells(la, score, aEnd, bEnd int) int64 {
	if score <= 0 {
		return 0
	}
	rows, centre, band, ok := t.traceStrip(la, score, aEnd, bEnd)
	if !ok {
		return 0
	}
	return BandedCells(rows, bEnd, centre, band)
}

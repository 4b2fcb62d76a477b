package align

// LocalScore computes the Smith–Waterman local alignment score of a and
// b with affine gaps (Gotoh's algorithm) in O(len(a)·len(b)) time and
// O(len(b)) space. It returns the best score and the (exclusive) end
// positions of the best-scoring local alignment in a and b.
//
// This is the exhaustive-search workhorse: the full-scan baseline calls
// it once per database sequence.
func LocalScore(a, b []byte, s Scoring) (score, aEnd, bEnd int) {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.LocalScore(a, b)
}

// LocalScore is the package-level function on a compiled scoring.
func (t *Subst) LocalScore(a, b []byte) (score, aEnd, bEnd int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	// h[j]: best score of an alignment ending at (i, j).
	// e[j]: best score ending at (i, j) with a vertical gap run
	// (consuming a only — a gap in b).
	n := len(b)
	h := make([]int32, n+1)
	e := make([]int32, n+1)
	openExt, ext := t.openExt, t.ext

	var best int32
	for i := 1; i <= len(a); i++ {
		var diag, f int32 // h[i-1][j-1] and the horizontal gap state
		sub := t.row(a[i-1])
		for j := 1; j <= n; j++ {
			up := h[j]
			ev := e[j] - ext
			if v := up - openExt; v > ev {
				ev = v
			}
			if ev < 0 {
				ev = 0
			}
			e[j] = ev

			fv := f - ext
			if v := h[j-1] - openExt; v > fv {
				fv = v
			}
			if fv < 0 {
				fv = 0
			}
			f = fv

			hv := diag + sub[b[j-1]]
			if ev > hv {
				hv = ev
			}
			if fv > hv {
				hv = fv
			}
			if hv < 0 {
				hv = 0
			}
			diag = up
			h[j] = hv
			if hv > best {
				best = hv
				aEnd, bEnd = i, j
			}
		}
	}
	return int(best), aEnd, bEnd
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

	// Column counters derived from the transcript.
	Matches    int
	Mismatches int
	Gaps       int
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

// maxCells bounds the traceback matrix: alignments whose DP matrix
// would exceed this fall back to score-only results.
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
// exact affine-gap traceback. Memory is one byte per DP cell; problems
// larger than maxCells degrade to a score-only result with empty
// transcript and point spans at the alignment end.
func Local(a, b []byte, s Scoring) Alignment {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.Local(a, b)
}

// Local is the package-level function on a compiled scoring.
func (t *Subst) Local(a, b []byte) Alignment {
	if len(a) == 0 || len(b) == 0 {
		return Alignment{}
	}
	if int64(len(a)+1)*int64(len(b)+1) > maxCells {
		score, aEnd, bEnd := t.LocalScore(a, b)
		return Alignment{Score: score, AStart: aEnd, AEnd: aEnd, BStart: bEnd, BEnd: bEnd}
	}
	n := len(b)
	h := make([]int32, n+1)
	e := make([]int32, n+1)
	dir := make([]byte, (len(a)+1)*(n+1))
	openExt, ext := t.openExt, t.ext

	var best int32
	bestI, bestJ := 0, 0
	for i := 1; i <= len(a); i++ {
		var diag, f int32
		sub := t.row(a[i-1])
		row := i * (n + 1)
		for j := 1; j <= n; j++ {
			var d byte
			up := h[j]

			ev := e[j] - ext
			if v := up - openExt; v >= ev {
				ev = v
			} else {
				d |= eExtend
			}
			if ev < 0 {
				ev = 0
			}
			e[j] = ev

			fv := f - ext
			if v := h[j-1] - openExt; v >= fv {
				fv = v
			} else {
				d |= fExtend
			}
			if fv < 0 {
				fv = 0
			}
			f = fv

			hv := diag + sub[b[j-1]]
			src := byte(hFromDiag)
			if ev > hv {
				hv = ev
				src = hFromE
			}
			if fv > hv {
				hv = fv
				src = hFromF
			}
			if hv <= 0 {
				hv = 0
				src = hFromNone
			}
			diag = up
			h[j] = hv
			dir[row+j] = d | src
			if hv > best {
				best = hv
				bestI, bestJ = i, j
			}
		}
	}

	if best == 0 {
		return Alignment{}
	}
	al := Alignment{Score: int(best), AEnd: bestI, BEnd: bestJ}

	// Traceback with an explicit state machine over H/E/F.
	const (
		stH = iota
		stE
		stF
	)
	i, j, st := bestI, bestJ, stH
	var ops []byte
loop:
	for i > 0 && j > 0 {
		d := dir[i*(n+1)+j]
		switch st {
		case stH:
			switch d & hMask {
			case hFromNone:
				break loop
			case hFromDiag:
				ops = append(ops, OpMatch)
				if t.row(a[i-1])[b[j-1]] > 0 {
					al.Matches++
				} else {
					al.Mismatches++
				}
				i--
				j--
			case hFromE:
				st = stE
			case hFromF:
				st = stF
			}
		case stE:
			// Vertical gap: consume a[i-1], gap in b.
			ops = append(ops, OpBGap)
			al.Gaps++
			if d&eExtend == 0 {
				st = stH
			}
			i--
		case stF:
			// Horizontal gap: consume b[j-1], gap in a.
			ops = append(ops, OpAGap)
			al.Gaps++
			if d&fExtend == 0 {
				st = stH
			}
			j--
		}
	}
	al.AStart, al.BStart = i, j
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	al.Ops = ops
	return al
}

package align

// The banded score pass over a batch of candidates: up to MaxLanes
// subjects scored against one query at once, one candidate to an int16
// lane of a YMM register (banded_amd64.s, scoreLanesAVX2x16), as SWIPE
// (Rognes 2011) scores many database sequences against one query.
//
// Each candidate is a band window of its subject and a band centre on
// it. The lanes share the query's rows and the band's width, so band
// column c of row i is window position p = i + c in every lane, at
// window byte p + lo, lo the lane's first diagonal. The windows are
// transposed once into position-major bytes, MaxLanes to a position,
// and the pass walks every row of the query over every band column,
// each lane's H and E one vector per column. F runs along the columns as
// a plain recurrence from cell to cell, so the pass needs no prefix
// scan. A position outside a lane's window holds lanePad, which scores
// at most 0 against every query code; the kernel's header says why that
// leaves each lane's answer its single pass's.

// MaxLanes is how many candidates BandedLocalScoreLanes scores in one
// pass.
const MaxLanes = 16

// minVectorLanes is the fewest candidates the vector batch takes: below
// it they are scored one at a time, which costs less (EXPERIMENTS E33's
// break-even table). The batch transposes and scores all MaxLanes lanes
// whichever of them carry a candidate, so its cost hardly depends on
// how many do.
const minVectorLanes = 5

// maxLaneWidth bounds the band the vector batch takes, so that a lane's
// band column fits its int16 end.
const maxLaneWidth = 1<<15 - 1

// maxPooledCols caps the transposed windows a BandedScratch keeps
// between calls (64 KiB: a 4 000-base query at the default band); larger
// ones are per call, as maxPooledDir caps the direction matrix.
const maxPooledCols = 1 << 16

// lanePad is the byte at a position outside a lane's window. It is
// Subst.tab16's column for every byte past the alphabet, which scores
// −Mismatch against every query code. The transpose clamps every window
// byte to it too, as the narrow passes clamp their subject bytes.
const lanePad = 15

// LaneScore is one candidate's answer from BandedLocalScoreLanes: what
// BandedLocalScore returns for it.
type LaneScore struct{ Score, AEnd, BEnd int }

// laneEnds is what the lane pass returns, lane by lane: the best score
// and the row and band column of the first cell in row-major order that
// holds it, or a best of 0.
type laneEnds struct {
	best, row, col [MaxLanes]int16
}

// BandedLocalScoreLanes scores a against every window at once: out[l]
// is BandedLocalScore(a, windows[l], centres[l], band), for every l.
// out must be as long as windows. It allocates nothing once sc has
// grown.
//
// The windows run MaxLanes at a time. A group of at least
// minVectorLanes windows, of a query whose scores fit int16 lanes
// (fitsNarrow over all of a's rows) and a band of at most maxLaneWidth
// columns, runs on the vector batch where this CPU has one; every other
// group is scored window by window.
func (t *Subst) BandedLocalScoreLanes(a []byte, windows [][]byte, centres []int, band int, sc *BandedScratch, out []LaneScore) {
	out = out[:len(windows)]
	r := t.passRoute(sc)
	vector := t.vectorLanes(r, len(a), band)
	for len(windows) > 0 {
		n := min(len(windows), MaxLanes)
		if vector && n >= minVectorLanes {
			t.scoreLanes(r, a, windows[:n], centres[:n], band, sc, out[:n])
		} else {
			for l, w := range windows[:n] {
				out[l].Score, out[l].AEnd, out[l].BEnd = t.BandedLocalScore(a, w, centres[l], band, sc)
			}
		}
		windows, centres, out = windows[n:], centres[n:], out[n:]
	}
}

// vectorLanes reports whether route r scores a batch of a query of la
// bases at band on the vector batch.
func (t *Subst) vectorLanes(r *passRoute, la, band int) bool {
	return r.lanes16 != nil && la > 0 && band >= 0 && 2*band+1 <= maxLaneWidth &&
		t.fitsNarrow(int64(t.scoring.Match)*int64(la))
}

// scoreLanes runs the vector batch on up to MaxLanes windows.
func (t *Subst) scoreLanes(r *passRoute, a []byte, windows [][]byte, centres []int, band int, sc *BandedScratch, out []LaneScore) {
	width := 2*band + 1
	var los [MaxLanes]int
	for l, c := range centres[:len(windows)] {
		los[l] = c - band
	}
	cols := sc.laneCols(len(a), windows, los[:len(windows)], width)
	h, e := sc.laneRows(width)
	ends := &sc.ends
	r.lanes16(h, e, cols, a, width, t, ends)
	for l := range windows {
		if ends.best[l] == 0 {
			out[l] = LaneScore{}
			continue
		}
		i := int(ends.row[l])
		out[l] = LaneScore{Score: int(ends.best[l]), AEnd: i + 1, BEnd: i + los[l] + int(ends.col[l]) + 1}
	}
}

// laneCols transposes the windows into position-major bytes for a query
// of la rows and a band of width columns: byte l of position p is
// windows[l][p+los[l]] clamped to lanePad, or lanePad where that is
// outside the window or l has no window. Positions run over every cell
// of the band, p = i + c for row i and column c.
// The bytes belong to the scratch and are reused by its next call.
func (sc *BandedScratch) laneCols(la int, windows [][]byte, los []int, width int) []byte {
	n := la + width - 1
	cols := sc.cols
	if cap(cols) < n*MaxLanes {
		cols = make([]byte, n*MaxLanes) // grows once to the high-water query, outside the pass
		if n*MaxLanes <= maxPooledCols {
			sc.cols = cols
		}
	}
	cols = cols[:n*MaxLanes]
	for l := range MaxLanes {
		var w []byte
		lo := 0
		if l < len(windows) {
			w, lo = windows[l], los[l]
		}
		from := min(max(-lo, 0), n)
		to := max(min(len(w)-lo, n), from)
		for p := 0; p < from; p++ {
			cols[p*MaxLanes+l] = lanePad
		}
		if to > from {
			for p, v := range w[from+lo : to+lo] {
				cols[(from+p)*MaxLanes+l] = min(v, lanePad)
			}
		}
		for p := to; p < n; p++ {
			cols[p*MaxLanes+l] = lanePad
		}
	}
	return cols
}

// laneRows returns the lane pass's H and E rows for a band of width
// columns, MaxLanes cells a column, all 0: column c at cells
// [c·MaxLanes, (c+1)·MaxLanes) of each, and one more column past the
// band, which stands for the single passes' sentinel there (under the
// lane pass's clamped terms, banded_amd64.s, it meets 0 as it meets
// negInf there). H has three more columns past that, which the pass's
// search for a row's best reads and never matches.
// The rows belong to the scratch and are reused by its next call.
func (sc *BandedScratch) laneRows(width int) (h, e []int16) {
	if cap(sc.laneH) < (width+4)*MaxLanes {
		sc.laneH = make([]int16, (width+4)*MaxLanes) // grows once to the widest band
		sc.laneE = make([]int16, (width+1)*MaxLanes) // grows once to the widest band
	}
	h, e = sc.laneH[:(width+4)*MaxLanes], sc.laneE[:(width+1)*MaxLanes]
	clear(h)
	clear(e)
	return h, e
}

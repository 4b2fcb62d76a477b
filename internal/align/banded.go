package align

// Banded Smith–Waterman with affine gaps, restricted to diagonals within
// ±band of centre, where the diagonal of cell (i,j) is j−i (0-based
// offsets, so a perfect ungapped match of a against b starting at
// b-offset d lies on diagonal d). Band column c of row i is the cell on
// diagonal centre−band+c.
//
// One H row and one E row are updated in place. The band shifts one
// column per row, so before a cell is written its own slot still holds
// the diagonal neighbour (i−1,j−1) and the next slot the vertical
// neighbour (i−1,j); the horizontal neighbour was written one step ago
// and is carried in a register. Slots the band never reaches inside the
// matrix stay 0 (the local-alignment boundary), and a sentinel slot at
// each end of the H row and at the right end of the E row holds negInf,
// which is all the band-edge handling there is. Each row ranges over
// its slice of b, so the inner loops carry no bounds checks.
//
// Each kernel is one pass over the band's rows. Its Go route calls a
// leaf function a row (scoreRow, traceRow), so the row loop has the
// registers to itself. Inline in the pass it would share them with the
// row setup, and the compiler would keep the loop-carried left → F → H
// chain on the stack, storing and reloading it at every cell. scoreRow
// keeps its row best in a register too; traceRow, with one more
// pointer, keeps it in a stack slot, off the chain.
//
// The passes have two routes, chosen once at package initialisation:
// the Go pass, and on amd64 CPUs with AVX2 the same pass in YMM
// registers (banded_amd64.s), which walks the rows itself and takes F
// by a prefix scan. The AVX2 route runs a pass sixteen int16 cells to a
// register over int16 rows when the pass's scores fit them (fitsNarrow,
// decided once per pass from the scoring and the number of rows — at
// the default scoring, queries up to ≈ 3 000 bases), and eight int32
// cells to a register otherwise. Every route writes the same H, E and
// direction bytes and returns the same best and end.

// negInf marks the sentinel slots. It sits below every score by more
// than any penalty, so a sentinel less a gap penalty loses every max,
// and leaves room for a penalty (GapOpen+GapExtend < 2^30) before it
// wraps. traceRow reads its flags off the sign bits of differences,
// which hold only while a difference does not wrap. A flag's two terms
// are either both finite — each between −(Mismatch+GapOpen+GapExtend)
// and best+Match — or a sentinel term against another sentinel term or
// against the row's first F less GapExtend, a difference of at least
// negInf − GapOpen. So none wraps while best + Match + Mismatch +
// GapOpen + GapExtend < 2^31: at Match 5, a perfect alignment of 4·10^8
// bases. TestBandedKernelsLargeScores holds the flags to the reference
// at scores of 2.6·10^8. Validate keeps every penalty below 2^30, and
// the search refuses a query whose best + Match + Mismatch + GapOpen +
// GapExtend could reach 2^31 (Scoring.FitsQuery).
const negInf = int32(-1 << 30)

// negInf16 is negInf in the narrow passes' int16 rows. A narrow pass
// runs only while its cells' largest score plus Match + Mismatch +
// openExt + 16·ext is at most narrowMax (fitsNarrow), so every finite
// term it computes lies in (−2^14, 2^14), its scan's terms biased by
// 2^14 in (0, 2^15), and a sentinel less openExt stays at or above
// −2^15: no term wraps, and each flag compares the values the int32
// pass does. The sentinel terms meet each other as they do there — the
// E terms at the right end of a row, negInf16 − openExt against
// negInf16 − ext — so their flags match too.
const negInf16 = int16(-1 << 14)

// narrowMax bounds a narrow pass (negInf16): its largest score plus
// Match + Mismatch + openExt + 16·ext must not pass it.
const narrowMax = 1<<14 - 1

// narrowPad is the slots past each int16 row the narrow passes may read
// and write: a row's last block runs whole, and writes back what it read
// in the lanes past the row.
const narrowPad = 16

// maxPooledDir caps the direction matrix a BandedScratch keeps between
// calls (1 MiB: a 20 kb query at band 25), and the transcript buffer;
// larger ones are per call, so one huge query does not pin them in every
// pooled searcher.
const maxPooledDir = 1 << 20

// passRoute is one implementation of the banded passes. A pass runs the
// rows [first, end) of a's band in b — width columns from diagonal lo —
// over the H and E rows h and e, laid out as BandedScratch.rows lays
// them out, with the scores and gap costs of t, starting from the best
// so far, best. It returns the best it ends with and the (exclusive) end
// of the first cell that holds it in row-major order — a later row that
// only equals the best does not move it, and in a row the first column
// of the best does — or best, 0, 0 when no cell beats best. trace also
// writes each cell's direction byte at dir[i·width+c], for band column c
// of row i.
//
// score16 and trace16, when set, are the same passes over int16 rows,
// laid out as BandedScratch.rows16 lays them out, for the passes
// fitsNarrow admits; best must be at most narrowMax+1.
type passRoute struct {
	name    string
	score   func(h, e []int32, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int)
	trace   func(h, e []int32, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int)
	score16 func(h, e []int16, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int)
	trace16 func(h, e []int16, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int)
}

// goPass is the portable route, and the reference the vector route is
// tested against.
var goPass = passRoute{name: "go", score: scorePass, trace: tracePass}

// fastestPass is the route the kernels take: the vector route when this
// CPU has one, else goPass.
var fastestPass = func() *passRoute {
	if r, ok := vectorPass(); ok {
		return &r
	}
	return &goPass
}()

// BandedScratch is the mutable state of the banded kernels: the H and E
// rows, in int32 cells and in int16 cells for the narrow passes, the
// traceback direction matrix (one byte per band cell) and the reversed
// transcript. One scratch belongs to one goroutine at a time; each
// core.Searcher keeps one and reuses it across candidates.
type BandedScratch struct {
	h, e     []int32 // DP rows with their sentinels, reset per call
	h16, e16 []int16 // the same in int16 cells, with narrowPad slots past each
	dir      []byte  // direction matrix, every cell the traceback reads is rewritten first
	ops      []byte  // reversed transcript, copied out before return; kept up to maxPooledDir
	// route, when set, runs the passes instead of fastestPass. Only the
	// tests set it.
	route *passRoute
}

// maxVectorExt bounds the gap extension the int32 vector passes take:
// below it, openExt + 8·ext stays inside an int32 lane (banded_amd64.s).
// A larger one runs on the Go pass. The narrow passes have their own,
// smaller bound (fitsNarrow).
const maxVectorExt = 1 << 27

// passRoute returns the route sc's passes run on under t: the tests'
// route if sc has one, else the fastest route t's gap extension admits.
func (t *Subst) passRoute(sc *BandedScratch) *passRoute {
	switch {
	case sc.route != nil:
		return sc.route
	case t.ext < maxVectorExt:
		return fastestPass
	}
	return &goPass
}

// fitsNarrow reports whether a pass whose H and E cells stay at most top
// runs in int16 lanes: every substitution score an int8, and top +
// Match + Mismatch + openExt + 16·ext at most narrowMax (negInf16 says
// why that suffices).
func (t *Subst) fitsNarrow(top int64) bool {
	return t.narrowSpan >= 0 && top <= narrowMax-t.narrowSpan
}

// narrowRows reports whether route r runs the pass of rows [first, end)
// in int16 lanes. The rows start at zero, so no cell of row i scores
// above Match·(i+1−first).
func (t *Subst) narrowRows(r *passRoute, first, end int) bool {
	return r.score16 != nil && t.fitsNarrow(int64(t.scoring.Match)*int64(end-first))
}

// rows returns the H and E rows for a band of width columns: H column c
// at h[c+1] between sentinels h[0] and h[width+1], E column c at e[c]
// before sentinel e[width].
// The rows belong to the scratch and are reused by its next call.
func (sc *BandedScratch) rows(width int) (h, e []int32) {
	if cap(sc.h) < width+2 {
		sc.h = make([]int32, width+2) // grows once to the widest band
		sc.e = make([]int32, width+1) // grows once to the widest band
	}
	h, e = sc.h[:width+2], sc.e[:width+1]
	clear(h)
	clear(e)
	h[0], h[width+1], e[width] = negInf, negInf, negInf
	return h, e
}

// rows16 is rows for the narrow passes: int16 cells, the sentinels
// negInf16, and narrowPad slots past each row, which the passes read and
// write back unchanged.
func (sc *BandedScratch) rows16(width int) (h, e []int16) {
	if cap(sc.h16) < width+2+narrowPad {
		sc.h16 = make([]int16, width+2+narrowPad) // grows once to the widest band
		sc.e16 = make([]int16, width+1+narrowPad) // grows once to the widest band
	}
	h, e = sc.h16[:width+2], sc.e16[:width+1]
	clear(h)
	clear(e)
	h[0], h[width+1], e[width] = negInf16, negInf16, negInf16
	return h, e
}

// bandRows returns the rows [first, end) of a whose band meets b.
func bandRows(la, lb, lo, width int) (first, end int) {
	first, end = -(lo + width - 1), lb-lo
	if first < 0 {
		first = 0
	}
	if end > la {
		end = la
	}
	return first, end
}

// BandedLocalScore computes the banded local alignment score of a and b
// and the (exclusive) end of the best alignment. The band makes the cost
// O(len(a)·band) instead of O(len(a)·len(b)): the fine phase uses it on
// candidates whose matching diagonals the coarse phase already located.
// The score is a lower bound on the unrestricted local score and equals
// it whenever the optimal alignment stays inside the band.
func BandedLocalScore(a, b []byte, centre, band int, s Scoring) (score, aEnd, bEnd int) {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.BandedLocalScore(a, b, centre, band, &k.banded)
}

// BandedLocalScore is the package-level function on a compiled scoring
// and caller-owned scratch; it allocates nothing once sc has grown.
func (t *Subst) BandedLocalScore(a, b []byte, centre, band int, sc *BandedScratch) (score, aEnd, bEnd int) {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return 0, 0, 0
	}
	lo, width := centre-band, 2*band+1
	first, end := bandRows(len(a), len(b), lo, width)
	r := t.passRoute(sc)
	var best int32
	if t.narrowRows(r, first, end) {
		h, e := sc.rows16(width)
		best, aEnd, bEnd = r.score16(h, e, a, b, lo, width, first, end, t, 0)
	} else {
		h, e := sc.rows(width)
		best, aEnd, bEnd = r.score(h, e, a, b, lo, width, first, end, t, 0)
	}
	return int(best), aEnd, bEnd
}

// scorePass is the Go route's score pass: scoreRow over each row, and
// the best's first column only in a row that beats the best so far.
func scorePass(h, e []int32, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int) {
	var aEnd, bEnd int
	tab, openExt, ext := &t.tab, t.openExt, t.ext
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		if v := scoreRow(hOut, hUp, eOut, eUp, bs, tableRow(tab, a[i]), h[c], openExt, ext); v > best {
			best = v
			aEnd, bEnd = i+1, jLo+firstAt(hOut, v)+1
		}
	}
	return best, aEnd, bEnd
}

// scoreRow is one band row of the score pass: it overwrites hOut and
// eOut, whose slots still hold the row above (hOut[x] is cell x's
// diagonal neighbour, hUp[x] its vertical one), and returns the row's
// best H; left is the H cell left of the row. The pass finds the best's
// first column only when the row beats the best so far: tracking it in
// the loop costs a register the loop does not have.
//
// F does not wait for the H left of it. With he the cell's best from
// the diagonal or E (≥ 0), F(x) = max(F(x−1)−ext, H(x−1)−openExt, 0)
// and H(x−1) = max(he(x−1), F(x−1)); since openExt ≥ ext (GapOpen ≥ 0,
// as Validate requires) F(x−1)−openExt never wins, so F(x) only needs
// he(x−1)−openExt, computed a cell early. F is left unclamped: it never
// drops below −openExt, and H = max(he, F) is the same either way.
func scoreRow(hOut, hUp, eOut, eUp []int32, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32) {
	hOut, hUp, eOut, eUp = hOut[:len(bs)], hUp[:len(bs)], eOut[:len(bs)], eUp[:len(bs)]
	_ = sub[0] // one nil check here instead of one per cell
	f, fOpen := int32(0), left-openExt
	for x, cb := range bs {
		ev := max(eUp[x]-ext, hUp[x]-openExt, 0)
		he := max(hOut[x]+sub[cb], ev)
		f = max(f-ext, fOpen)
		fOpen = he - openExt
		hv := max(he, f)
		eOut[x], hOut[x] = ev, hv
		best = max(best, hv)
	}
	return best
}

// firstAt returns the first index of v in row, which must hold it.
func firstAt(row []int32, v int32) int {
	x := 0
	for row[x] != v {
		x++
	}
	return x
}

// traceRow is scoreRow's row for the traceback pass: it also writes each
// cell's direction byte to dOut. F stays on the chain here, because the
// byte needs F's open and extend terms exactly. The byte is assembled
// from sign bits of differences, with no comparison to branch on; strict
// signs keep Local's tie rules (open over extend; diagonal over E over F).
func traceRow(hOut, hUp, eOut, eUp []int32, dOut, bs []byte, sub *[256]int32, left, openExt, ext int32) (best int32) {
	hOut, hUp, eOut, eUp, dOut = hOut[:len(bs)], hUp[:len(bs)], eOut[:len(bs)], eUp[:len(bs)], dOut[:len(bs)]
	_ = sub[0] // one nil check here instead of one per cell
	var f int32
	for x, cb := range bs {
		eOpen, eExt := hUp[x]-openExt, eUp[x]-ext
		ev := max(eOpen, eExt, 0)
		fOpen, fExt := left-openExt, f-ext
		f = max(fOpen, fExt, 0)
		hd := hOut[x] + sub[cb]
		he := max(hd, ev)
		left = max(he, f)
		eOut[x], hOut[x] = ev, left
		dOut[x] = eExtend*signBit(eOpen-eExt) | fExtend*signBit(fOpen-fExt) |
			(hFromDiag+signBit(hd-ev)|hFromF*signBit(he-f))&(hMask*signBit(-left))
		best = max(best, left)
	}
	return best
}

// signBit is 1 if v < 0 and 0 otherwise, read off the sign bit rather
// than compared, so it compiles to a shift instead of a branch.
func signBit(v int32) byte {
	return byte(uint32(v) >> 31)
}

// tracePass is the Go route's traceback pass: traceRow over each row.
func tracePass(h, e []int32, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int) {
	var aEnd, bEnd int
	tab, openExt, ext := &t.tab, t.openExt, t.ext
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		dOut := dir[i*width+c:][:len(bs)]
		if v := traceRow(hOut, hUp, eOut, eUp, dOut, bs, tableRow(tab, a[i]), h[c], openExt, ext); v > best {
			best = v
			aEnd, bEnd = i+1, jLo+firstAt(hOut, v)+1
		}
	}
	return best, aEnd, bEnd
}

// BandedLocal computes the banded local alignment of a and b with a
// full affine-gap traceback. Memory is one byte per band cell —
// O(len(a)·band) — so wide bands on long sequences stay cheap. The score
// equals BandedLocalScore's; when the optimal unrestricted alignment
// stays inside the band the result matches Local's.
func BandedLocal(a, b []byte, centre, band int, s Scoring) Alignment {
	k := getKernel(s)
	defer kernels.Put(k)
	return k.subst.BandedLocal(a, b, centre, band, &k.banded)
}

// BandedLocal is the package-level function on a compiled scoring and
// caller-owned scratch; its only allocation is the returned transcript.
// It is one forward pass: a caller that already knows the alignment's
// end row from BandedLocalScore passes a[:aEnd] and gets the identical
// alignment for fewer cells.
func (t *Subst) BandedLocal(a, b []byte, centre, band int, sc *BandedScratch) Alignment {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return Alignment{}
	}
	lo, width := centre-band, 2*band+1
	dir := sc.dir
	if need := len(a) * width; cap(dir) < need {
		dir = make([]byte, need) // grows once to the high-water query length, outside the per-cell loop
		if need <= maxPooledDir {
			sc.dir = dir
		}
	}
	dir = dir[:len(a)*width]
	first, end := bandRows(len(a), len(b), lo, width)
	r := t.passRoute(sc)
	var (
		best       int32
		aEnd, bEnd int
	)
	if t.narrowRows(r, first, end) {
		h, e := sc.rows16(width)
		best, aEnd, bEnd = r.trace16(h, e, dir, a, b, lo, width, first, end, t, 0)
	} else {
		h, e := sc.rows(width)
		best, aEnd, bEnd = r.trace(h, e, dir, a, b, lo, width, first, end, t, 0)
	}
	if best == 0 {
		return Alignment{}
	}
	al := Alignment{Score: int(best), AEnd: aEnd, BEnd: bEnd}

	// Traceback mirrors Local's H/E/F state machine over band columns.
	const (
		stH = iota
		stE
		stF
	)
	i, j, st := aEnd-1, bEnd-1, stH
	ops := sc.ops[:0]
loop:
	for i >= 0 && j >= 0 {
		c := j - i - lo
		if c < 0 || c >= width {
			break
		}
		d := dir[i*width+c]
		switch st {
		case stH:
			switch d & hMask {
			case hFromNone:
				break loop
			case hFromDiag:
				ops = append(ops, OpMatch) // amortised scratch; stabilises at the longest transcript
				if t.row(a[i])[b[j]] > 0 {
					al.Matches++
				}
				i--
				j--
			case hFromE:
				st = stE
			case hFromF:
				st = stF
			}
		case stE:
			ops = append(ops, OpBGap) // amortised scratch; stabilises at the longest transcript
			if d&eExtend == 0 {
				st = stH
			}
			i--
		case stF:
			ops = append(ops, OpAGap) // amortised scratch; stabilises at the longest transcript
			if d&fExtend == 0 {
				st = stH
			}
			j--
		}
	}
	al.AStart, al.BStart = i+1, j+1
	if cap(ops) <= maxPooledDir {
		sc.ops = ops[:0]
	}
	al.Ops = make([]byte, len(ops)) // the returned transcript, the call's one allocation
	for x, o := range ops {
		al.Ops[len(ops)-1-x] = o
	}
	return al
}

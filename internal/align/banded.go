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
// Each kernel's row is a leaf function (scoreRow, traceRow) over that
// row's slices, so the row loop has the registers to itself. Inline in
// the kernel it would share them with the row setup, and the compiler
// would keep the loop-carried left → F → H chain on the stack, storing
// and reloading it at every cell. scoreRow keeps its row best in a
// register too; traceRow, with one more pointer, keeps it in a stack
// slot, off the chain.
//
// The rows have two routes, chosen once at package initialisation: the
// Go rows, and on amd64 CPUs with AVX2 the same rows eight cells to a
// YMM register (banded_amd64.s), which take F by a prefix scan. Both
// write the same H, E and direction bytes and return the same best.

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
// at scores of 2.6·10^8.
const negInf = int32(-1 << 30)

// maxPooledDir caps the direction matrix a BandedScratch keeps between
// calls (1 MiB: a 20 kb query at band 25), and the transcript buffer;
// larger ones are per call, so one huge query does not pin them in every
// pooled searcher.
const maxPooledDir = 1 << 20

// rowRoute is one implementation of the banded rows: score and trace
// keep scoreRow's and traceRow's contracts.
type rowRoute struct {
	name  string
	score func(hOut, hUp, eOut, eUp []int32, bs []byte, sub *[256]int32, left, openExt, ext int32) int32
	trace func(hOut, hUp, eOut, eUp []int32, dOut, bs []byte, sub *[256]int32, left, openExt, ext int32) int32
}

// goRows is the portable route, and the reference the vector route is
// tested against.
var goRows = rowRoute{name: "go", score: scoreRow, trace: traceRow}

// fastestRows is the route the kernels take: the vector route when this
// CPU has one, else goRows.
var fastestRows = func() *rowRoute {
	if r, ok := vectorRows(); ok {
		return &r
	}
	return &goRows
}()

// BandedScratch is the mutable state of the banded kernels: the H and E
// rows, the traceback direction matrix (one byte per band cell) and the
// reversed transcript. One scratch belongs to one goroutine at a time;
// each core.Searcher keeps one and reuses it across candidates.
type BandedScratch struct {
	h, e []int32 // DP rows with their sentinels, reset per call
	dir  []byte  // direction matrix, every cell the traceback reads is rewritten first
	ops  []byte  // reversed transcript, copied out before return; kept up to maxPooledDir
	// route, when set, runs the rows instead of fastestRows. Only the
	// tests set it.
	route *rowRoute
}

// maxVectorExt bounds the gap extension the vector route takes: below
// it, openExt + 8·ext stays inside an int32 lane (banded_amd64.s). A
// larger one runs on the Go rows.
const maxVectorExt = 1 << 27

// rowRoute returns the route sc's rows run on under t: the tests' route
// if sc has one, else the fastest route t's gap extension admits.
func (t *Subst) rowRoute(sc *BandedScratch) *rowRoute {
	switch {
	case sc.route != nil:
		return sc.route
	case t.ext < maxVectorExt:
		return fastestRows
	}
	return &goRows
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
	h, e := sc.rows(width)
	r := t.rowRoute(sc)
	var best int32
	first, end := bandRows(len(a), len(b), lo, width)
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		if v := r.score(hOut, hUp, eOut, eUp, bs, t.row(a[i]), h[c], t.openExt, t.ext); v > best {
			best = v
			aEnd, bEnd = i+1, jLo+firstAt(hOut, v)+1
		}
	}
	return int(best), aEnd, bEnd
}

// scoreRow is one band row of the score pass: it overwrites hOut and
// eOut, whose slots still hold the row above (hOut[x] is cell x's
// diagonal neighbour, hUp[x] its vertical one), and returns the row's
// best H; left is the H cell left of the row. The caller finds the
// best's first column only when the row beats the best so far: tracking
// it in the loop costs a register the loop does not have.
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
	h, e := sc.rows(width)
	dir := sc.dir
	if need := len(a) * width; cap(dir) < need {
		dir = make([]byte, need) // grows once to the high-water query length, outside the per-cell loop
		if need <= maxPooledDir {
			sc.dir = dir
		}
	}
	var best int32
	bestI, bestJ := -1, -1
	r := t.rowRoute(sc)
	first, end := bandRows(len(a), len(b), lo, width)
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		dOut := dir[i*width+c:][:len(bs)]
		if v := r.trace(hOut, hUp, eOut, eUp, dOut, bs, t.row(a[i]), h[c], t.openExt, t.ext); v > best {
			best = v
			bestI, bestJ = i, jLo+firstAt(hOut, v)
		}
	}
	if best == 0 {
		return Alignment{}
	}
	al := Alignment{Score: int(best), AEnd: bestI + 1, BEnd: bestJ + 1}

	// Traceback mirrors Local's H/E/F state machine over band columns.
	const (
		stH = iota
		stE
		stF
	)
	i, j, st := bestI, bestJ, stH
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

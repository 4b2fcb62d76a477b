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

const negInf = int32(-1 << 30)

// maxPooledDir caps the direction matrix a BandedScratch keeps between
// calls (1 MiB: a 20 kb query at band 25); larger ones are per call, so
// one huge query does not pin its matrix in every pooled searcher.
const maxPooledDir = 1 << 20

// BandedScratch is the mutable state of the banded kernels: the H and E
// rows, the traceback direction matrix (one byte per band cell) and the
// reversed transcript. One scratch belongs to one goroutine at a time;
// the fine phase pools one per worker.
type BandedScratch struct {
	h, e []int32 //cafe:pooled DP rows with their sentinels, reset per call
	dir  []byte  //cafe:pooled direction matrix, every cell the traceback reads is rewritten first
	ops  []byte  //cafe:pooled reversed transcript, copied out before return
}

// rows returns the H and E rows for a band of width columns: H column c
// at h[c+1] between sentinels h[0] and h[width+1], E column c at e[c]
// before sentinel e[width].
//
//cafe:pooled the rows belong to the scratch and are reused by its next call
//cafe:hotpath
func (sc *BandedScratch) rows(width int) (h, e []int32) {
	if cap(sc.h) < width+2 {
		sc.h = make([]int32, width+2) //cafe:allow grows once to the widest band
		sc.e = make([]int32, width+1) //cafe:allow grows once to the widest band
	}
	h, e = sc.h[:width+2], sc.e[:width+1]
	clear(h)
	clear(e)
	h[0], h[width+1], e[width] = negInf, negInf, negInf
	return h, e
}

// bandRows returns the rows [first, end) of a whose band meets b.
//
//cafe:hotpath
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
//
//cafe:hotpath
func (t *Subst) BandedLocalScore(a, b []byte, centre, band int, sc *BandedScratch) (score, aEnd, bEnd int) {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return 0, 0, 0
	}
	lo, width := centre-band, 2*band+1
	h, e := sc.rows(width)
	openExt, ext := t.openExt, t.ext
	var best int32
	first, end := bandRows(len(a), len(b), lo, width)
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		left, diag, f := h[c], h[c+1], int32(0)
		sub := t.row(a[i])
		for x, cb := range bs {
			up := hUp[x]
			ev := max(eUp[x]-ext, up-openExt, 0)
			f = max(f-ext, left-openExt, 0)
			left = max(diag+sub[cb], ev, f, 0)
			diag = up
			eOut[x], hOut[x] = ev, left
			if left > best {
				best = left
				aEnd, bEnd = i+1, jLo+x+1
			}
		}
	}
	return int(best), aEnd, bEnd
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
//
//cafe:hotpath
func (t *Subst) BandedLocal(a, b []byte, centre, band int, sc *BandedScratch) Alignment {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return Alignment{}
	}
	lo, width := centre-band, 2*band+1
	h, e := sc.rows(width)
	dir := sc.dir
	if need := len(a) * width; cap(dir) < need {
		dir = make([]byte, need) //cafe:allow grows once to the high-water query length, outside the per-cell loop
		if need <= maxPooledDir {
			sc.dir = dir
		}
	}
	openExt, ext := t.openExt, t.ext
	var best int32
	bestI, bestJ := -1, -1
	first, end := bandRows(len(a), len(b), lo, width)
	for i := first; i < end; i++ {
		jLo, jHi := max(i+lo, 0), min(i+lo+width, len(b))
		bs := b[jLo:jHi]
		c := jLo - i - lo
		hOut, hUp := h[c+1:][:len(bs)], h[c+2:][:len(bs)]
		eOut, eUp := e[c:][:len(bs)], e[c+1:][:len(bs)]
		dOut := dir[i*width+c:][:len(bs)]
		left, diag, f := h[c], h[c+1], int32(0)
		sub := t.row(a[i])
		for x, cb := range bs {
			// Branch-free: each comparison becomes a 0/1 byte, the
			// direction byte is assembled from them (ties resolve as in
			// Local: open over extend, diagonal over E over F).
			up := hUp[x]
			eOpen, eExt := up-openExt, eUp[x]-ext
			ev := max(eOpen, eExt, 0)
			fOpen, fExt := left-openExt, f-ext
			f = max(fOpen, fExt, 0)
			hd := diag + sub[cb]
			he := max(hd, ev)
			hv := max(he, f, 0)
			var eX, fX, fromE, fromF, some byte
			if eOpen < eExt {
				eX = eExtend
			}
			if fOpen < fExt {
				fX = fExtend
			}
			if ev > hd {
				fromE = 1
			}
			if f > he {
				fromF = hFromF
			}
			if hv > 0 {
				some = hMask
			}
			diag, left = up, hv
			eOut[x], hOut[x], dOut[x] = ev, hv, eX|fX|(hFromDiag+fromE|fromF)&some
			if hv > best {
				best = hv
				bestI, bestJ = i, jLo+x
			}
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
				ops = append(ops, OpMatch) //cafe:allow amortised scratch; stabilises at the longest transcript
				if t.row(a[i])[b[j]] > 0 {
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
			ops = append(ops, OpBGap) //cafe:allow amortised scratch; stabilises at the longest transcript
			al.Gaps++
			if d&eExtend == 0 {
				st = stH
			}
			i--
		case stF:
			ops = append(ops, OpAGap) //cafe:allow amortised scratch; stabilises at the longest transcript
			al.Gaps++
			if d&fExtend == 0 {
				st = stH
			}
			j--
		}
	}
	al.AStart, al.BStart = i+1, j+1
	sc.ops = ops[:0]
	al.Ops = make([]byte, len(ops)) //cafe:allow the returned transcript, the call's one allocation
	for x, o := range ops {
		al.Ops[len(ops)-1-x] = o
	}
	return al
}

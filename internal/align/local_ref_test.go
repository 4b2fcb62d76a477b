package align

// refSubstLocalScore is Subst.LocalScore as it stood before it became
// the banded score pass over a band of every diagonal: one H and one E
// row, the row loop inline. It exists only as the oracle of
// TestLocalScoreMatchesReference. The body is verbatim; only the
// receiver became a parameter.
func refSubstLocalScore(t *Subst, a, b []byte, sc *BandedScratch) (score, aEnd, bEnd int) {
	if len(a) == 0 || len(b) == 0 {
		return 0, 0, 0
	}
	// h[j]: best score of an alignment ending at (i, j).
	// e[j]: best score ending at (i, j) with a vertical gap run
	// (consuming a only — a gap in b). Both start as the zero boundary
	// row: the band rows' sentinels are cleared.
	n := len(b)
	h, e := sc.rows(n)
	h = h[:n+1]
	h[0], e[n] = 0, 0
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

// Frozen copy of Subst.Local as it stood before the traceback was
// bounded to a strip: one forward pass over the whole matrix writing a
// direction byte per cell, then the walk back. It exists only as the
// oracle of the exhaustive, differential, tie and fuzz lockdown in
// local_strip_test.go — production has one path, LocalScore plus
// LocalEndingAt. The body is verbatim; only the receiver became a
// parameter and the score-only degrade got a scratch to call with.
func refLocal(t *Subst, a, b []byte) Alignment {
	if len(a) == 0 || len(b) == 0 {
		return Alignment{}
	}
	if int64(len(a)+1)*int64(len(b)+1) > maxCells {
		score, aEnd, bEnd := t.LocalScore(a, b, new(BandedScratch))
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
			if d&eExtend == 0 {
				st = stH
			}
			i--
		case stF:
			// Horizontal gap: consume b[j-1], gap in a.
			ops = append(ops, OpAGap)
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

package align

// Frozen copies of the banded aligners as they stood before the
// table-driven in-place kernels replaced them: two H/E rows copied per
// DP row, per-cell band-edge branches and a Scoring.Score call per cell.
// They exist only as the oracle of the differential, exhaustive and
// fuzz lockdown in banded_kernel_test.go — production has one path.

// refBandedLocal is BandedLocal as it stood before the in-place kernels.
func refBandedLocal(a, b []byte, centre, band int, s Scoring) Alignment {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return Alignment{}
	}
	lo := centre - band
	width := 2*band + 1
	h := make([]int32, width)
	e := make([]int32, width)
	prevH := make([]int32, width)
	prevE := make([]int32, width)
	dir := make([]byte, len(a)*width)
	openExt := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	const negInf = int32(-1 << 30)

	var best int32
	bestI, bestJ := -1, -1
	for i := 0; i < len(a); i++ {
		ca := a[i]
		jLo, jHi := i+lo, i+lo+width-1
		if jLo < 0 {
			jLo = 0
		}
		if jHi >= len(b) {
			jHi = len(b) - 1
		}
		if jLo > jHi {
			if i+lo > len(b)-1 {
				break
			}
			for c := range h {
				h[c], e[c] = 0, 0
			}
			continue
		}
		var f int32
		copy(prevH, h)
		copy(prevE, e)
		for c := range h {
			h[c], e[c] = 0, 0
		}
		row := i * width
		for j := jLo; j <= jHi; j++ {
			c := j - i - lo
			var d byte

			up, eUp := negInf, negInf
			if c+1 < width {
				up = prevH[c+1]
				eUp = prevE[c+1]
			}
			ev := eUp - ext
			if v := up - openExt; v >= ev {
				ev = v
			} else {
				d |= eExtend
			}
			if ev < 0 {
				ev = 0
			}

			fv := f - ext
			var leftH int32 = negInf
			if c-1 >= 0 {
				leftH = h[c-1]
			}
			if v := leftH - openExt; v >= fv {
				fv = v
			} else {
				d |= fExtend
			}
			if fv < 0 {
				fv = 0
			}
			f = fv

			diagH := int32(0)
			if i > 0 && j > 0 {
				diagH = prevH[c]
			}
			hv := diagH + int32(s.Score(ca, b[j]))
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
			e[c] = ev
			h[c] = hv
			dir[row+c] = d | src
			if hv > best {
				best = hv
				bestI, bestJ = i, j
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
	var ops []byte
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
				ops = append(ops, OpMatch)
				if s.Score(a[i], b[j]) > 0 {
					al.Matches++
				}
				i--
				j--
				if i < 0 || j < 0 {
					break loop
				}
			case hFromE:
				st = stE
			case hFromF:
				st = stF
			}
		case stE:
			ops = append(ops, OpBGap)
			if d&eExtend == 0 {
				st = stH
			}
			i--
			if i < 0 {
				break loop
			}
		case stF:
			ops = append(ops, OpAGap)
			if d&fExtend == 0 {
				st = stH
			}
			j--
			if j < 0 {
				break loop
			}
		}
	}
	al.AStart, al.BStart = i+1, j+1
	for l, r := 0, len(ops)-1; l < r; l, r = l+1, r-1 {
		ops[l], ops[r] = ops[r], ops[l]
	}
	al.Ops = ops
	return al
}

// refBandedLocalScore is the score-only twin of refBandedLocal.
func refBandedLocalScore(a, b []byte, centre, band int, s Scoring) (score, aEnd, bEnd int) {
	if len(a) == 0 || len(b) == 0 || band < 0 {
		return 0, 0, 0
	}
	lo, hi := centre-band, centre+band // inclusive diagonal range
	width := 2*band + 1
	// h[c], e[c]: DP states for diagonal lo+c on the current row.
	h := make([]int32, width)
	e := make([]int32, width)
	prevH := make([]int32, width)
	prevE := make([]int32, width)
	openExt := int32(s.GapOpen + s.GapExtend)
	ext := int32(s.GapExtend)
	const negInf = int32(-1 << 30)

	var best int32
	for i := 0; i < len(a); i++ {
		ca := a[i]
		// j ranges over the intersection of the band with b.
		jLo, jHi := i+lo, i+hi
		if jLo < 0 {
			jLo = 0
		}
		if jHi >= len(b) {
			jHi = len(b) - 1
		}
		if jLo > jHi {
			// Band has left b entirely.
			if i+lo > len(b)-1 {
				break
			}
			for c := range h {
				h[c], e[c] = 0, 0
			}
			continue
		}
		var f int32
		copy(prevH, h)
		copy(prevE, e)
		for c := range h {
			h[c], e[c] = 0, 0
		}
		for j := jLo; j <= jHi; j++ {
			c := j - i - lo // band column of diagonal j-i

			// Vertical move comes from (i-1, j): same j, previous row,
			// where the band column was j-(i-1)-lo = c+1.
			up, eUp := negInf, negInf
			if c+1 < width {
				up = prevH[c+1]
				eUp = prevE[c+1]
			}
			ev := eUp - ext
			if v := up - openExt; v > ev {
				ev = v
			}
			if ev < 0 {
				ev = 0
			}

			fv := f - ext
			var leftH int32 = negInf
			if c-1 >= 0 {
				leftH = h[c-1]
			}
			if v := leftH - openExt; v > fv {
				fv = v
			}
			if fv < 0 {
				fv = 0
			}
			f = fv

			// Diagonal move comes from (i-1, j-1): previous row, same
			// band column c.
			diag := int32(0)
			if i > 0 && j > 0 {
				diag = prevH[c]
			}
			hv := diag + int32(s.Score(ca, b[j]))
			if ev > hv {
				hv = ev
			}
			if fv > hv {
				hv = fv
			}
			if hv < 0 {
				hv = 0
			}
			e[c] = ev
			h[c] = hv
			if hv > best {
				best = hv
				aEnd, bEnd = i+1, j+1
			}
		}
	}
	return int(best), aEnd, bEnd
}

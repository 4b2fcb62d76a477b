package align

// Frozen copy of the bitvector kernel as it stood before the byte lanes:
// four 16-bit lanes a word for the whole pair, separate current and
// previous H columns, and padding masks. It exists only as the oracle of
// the differential, widening and fuzz lockdown in striped_test.go and
// striped_fuzz_test.go — production has one path, StripedProfile.Score.
// The code is verbatim; only the names gained a ref prefix and the lint
// directives went.

import "nucleodb/internal/dna"

const (
	refLanes    = 4  // 16-bit lanes per uint64
	refLaneBits = 16 // bits per lane

	// refLaneCap is the largest value any lane may hold: the per-lane top
	// bit must stay clear for refLaneSubSat/refLaneMax to be exact.
	refLaneCap = 0x7FFF

	refLaneHi   = 0x8000_8000_8000_8000 // per-lane top bits
	refLaneOnes = 0x0001_0001_0001_0001 // 1 in every lane
)

// refPackLane broadcasts v (0 ≤ v ≤ refLaneCap) into all four lanes.
func refPackLane(v int) uint64 { return uint64(v) * refLaneOnes }

// refLaneSubSat returns x−y per 16-bit lane, saturated at 0 (the DP's
// "clamp negative scores to zero"). Both operands must be ≤ refLaneCap in
// every lane. Setting each lane's top bit in x prevents borrows from
// crossing lanes; the surviving top bit then flags the lanes where
// x ≥ y, and spreading it to a full-lane mask keeps exactly those
// differences.
func refLaneSubSat(x, y uint64) uint64 {
	z := (x | refLaneHi) - y
	keep := ((z & refLaneHi) >> 15) * 0xFFFF
	return (z ^ refLaneHi) & keep
}

// refLaneMax returns the per-lane maximum of x and y (lanes ≤ refLaneCap).
func refLaneMax(x, y uint64) uint64 {
	z := (x | refLaneHi) - y
	keep := ((z & refLaneHi) >> 15) * 0xFFFF // full lanes where x ≥ y
	return (x & keep) | (y &^ keep)
}

// refStripedScratch is the mutable state of one striped score
// evaluation: the current/previous H columns and the E (gap-in-query
// direction) column. One scratch belongs to one goroutine at a time.
type refStripedScratch struct {
	cur, prev, e []uint64
}

// resize prepares the scratch for segLen words, growing once at the
// high-water mark and zeroing the active prefix (the DP boundary).
func (sc *refStripedScratch) resize(segLen int) {
	if cap(sc.cur) < segLen {
		sc.cur = make([]uint64, segLen)
		sc.prev = make([]uint64, segLen)
		sc.e = make([]uint64, segLen)
	}
	sc.cur = sc.cur[:segLen]
	sc.prev = sc.prev[:segLen]
	sc.e = sc.e[:segLen]
	clear(sc.cur)
	clear(sc.prev)
	clear(sc.e)
}

// refStripedProfile is the striped query profile of the bitvector kernel:
// for every subject code, the biased substitution scores of all query
// positions, in stripe order. Building it costs O(16·n) once per query
// strand; scoring a subject then never calls Scoring.Score. A profile
// is immutable after Build and safe for concurrent Score calls with
// distinct scratches.
type refStripedProfile struct {
	n       int      // query length
	segLen  int      // words per column
	prof    []uint64 // (dna.NumCodes+1) rows × segLen words, biased by Mismatch
	masks   []uint64 // full lanes at real query positions, 0 at padding
	hasPad  bool     // any padding lane at all (n % refLanes != 0 or short query)
	bias    uint64   // packed Mismatch
	openExt uint64   // packed GapOpen+GapExtend
	ext     uint64   // packed GapExtend
	// maxMin is the largest min(query, subject) length whose score
	// bound fits the lanes; 0 marks a scoring whose parameters alone
	// overflow (Supports then always refuses).
	maxMin int
}

// newRefStripedProfile builds the striped profile of query q under s. The
// returned profile always builds; Supports reports per-subject whether
// the lanes can hold the score bound.
func newRefStripedProfile(q []byte, s Scoring) *refStripedProfile {
	p := &refStripedProfile{}
	p.Build(q, s)
	return p
}

// Build (re)initialises the profile for a new query, reusing backing
// storage — the searcher rebuilds one pooled profile per strand.
func (p *refStripedProfile) Build(q []byte, s Scoring) {
	n := len(q)
	segLen := (n + refLanes - 1) / refLanes
	p.n, p.segLen = n, segLen
	p.bias = refPackLane(s.Mismatch & refLaneCap)
	p.openExt = refPackLane((s.GapOpen + s.GapExtend) & refLaneCap)
	p.ext = refPackLane(s.GapExtend & refLaneCap)

	// Lane capacity: the top score of a local alignment of lengths
	// (n, m) is min(n,m)·Match, and the pre-bias add in the inner loop
	// peaks at that plus Match+Mismatch. Refuse anything that could
	// touch the per-lane top bit.
	p.maxMin = 0
	if s.Match > 0 && s.Match+s.Mismatch <= refLaneCap &&
		s.GapOpen+s.GapExtend <= refLaneCap {
		p.maxMin = (refLaneCap - s.Match - s.Mismatch) / s.Match
	}

	rows := int(dna.NumCodes) + 1 // one per code plus the never-matches row
	if cap(p.prof) < rows*segLen {
		p.prof = make([]uint64, rows*segLen)
	}
	p.prof = p.prof[:rows*segLen]
	if cap(p.masks) < segLen {
		p.masks = make([]uint64, segLen)
	}
	p.masks = p.masks[:segLen]

	for c := 0; c < rows; c++ {
		row := p.prof[c*segLen : (c+1)*segLen]
		for w := 0; w < segLen; w++ {
			var word uint64
			for l := 0; l < refLanes; l++ {
				pos := l*segLen + w
				if pos >= n {
					continue // padding lane: weight irrelevant, H is masked
				}
				var sc int
				if c < int(dna.NumCodes) {
					sc = s.Score(q[pos], byte(c))
				} else {
					sc = -s.Mismatch // subject byte outside the code space
				}
				word |= uint64(uint16(sc+s.Mismatch)) << (refLaneBits * l)
			}
			row[w] = word
		}
	}
	p.hasPad = false
	for w := 0; w < segLen; w++ {
		var mask uint64
		for l := 0; l < refLanes; l++ {
			if l*segLen+w < n {
				mask |= uint64(0xFFFF) << (refLaneBits * l)
			}
		}
		p.masks[w] = mask
		if mask != ^uint64(0) {
			p.hasPad = true
		}
	}
}

// Supports reports whether the lanes can hold the DP values of this
// query against a subject of length lb. Callers fall back to the
// scalar kernel when it returns false ("queries longer than the
// striping supports" — though the binding length is whichever sequence
// is shorter, since that bounds the score).
func (p *refStripedProfile) Supports(lb int) bool {
	if p.maxMin <= 0 {
		return false
	}
	minLen := p.n
	if lb < minLen {
		minLen = lb
	}
	return minLen <= p.maxMin
}

// Score computes the exact Smith–Waterman affine-gap local alignment
// score of the profile's query against subject b — bit for bit the
// score LocalScore returns — using sc as scratch. bEnd is the
// (exclusive) end of the first subject column holding a cell of that
// score and unique reports that no other column holds one; only then is
// bEnd LocalScore's, which takes the smallest query row first where this
// kernel takes the smallest column. ok is false (and no work is done)
// when the pair exceeds the lanes' capacity; the caller then runs the
// scalar kernel.
func (p *refStripedProfile) Score(b []byte, sc *refStripedScratch) (score, bEnd int, unique, ok bool) {
	if p.n == 0 || len(b) == 0 {
		return 0, 0, false, true
	}
	if !p.Supports(len(b)) {
		return 0, 0, false, false
	}
	segLen := p.segLen
	sc.resize(segLen)
	// Reslice to the exact segment length so the inner loops'
	// w < segLen bound provably covers every index (bounds-check
	// elimination keeps the hot loop branch-free).
	cur, prev, e := sc.cur[:segLen], sc.prev[:segLen], sc.e[:segLen]
	masks := p.masks[:segLen]
	bias, openExt, ext := p.bias, p.openExt, p.ext
	hasPad := p.hasPad
	// best is max(score, 1) in every lane: a column is looked at lane by
	// lane only when some cell in it reaches that.
	best := refPackLane(1)

	for i := 0; i < len(b); i++ {
		c := b[i]
		if c >= dna.NumCodes {
			c = dna.NumCodes // the never-matches profile row
		}
		prof := p.prof[int(c)*segLen : (int(c)+1)*segLen]

		// Diagonal carry-in: the previous column's last word, shifted
		// one lane up, so lane l starts from lane l−1's stripe end.
		// Lane 0 gets the zero boundary.
		vH := prev[segLen-1] << refLaneBits
		var vF, colBest uint64
		for w := 0; w < segLen; w++ {
			// H = max(0, diag + W, E, F). The profile is biased by
			// Mismatch so the add stays non-negative; the saturating
			// subtract of the bias restores the true value and clamps
			// at zero in one step.
			vH = refLaneSubSat(vH+prof[w], bias)
			vE := e[w]
			vH = refLaneMax(vH, vE)
			vH = refLaneMax(vH, vF)
			if hasPad {
				vH &= masks[w]
			}
			cur[w] = vH
			colBest = refLaneMax(colBest, vH)

			// Next-column E and next-word F, both fed by H − (open+ext)
			// and decayed by ext.
			vHGap := refLaneSubSat(vH, openExt)
			e[w] = refLaneMax(refLaneSubSat(vE, ext), vHGap)
			vF = refLaneMax(refLaneSubSat(vF, ext), vHGap)

			vH = prev[w] // diagonal input for the next word
		}

		// Lazy-F: propagate F across stripe boundaries. Each pass
		// shifts F one lane up and re-sweeps the column until F can no
		// longer improve any cell (F ≤ H − (open+ext) everywhere means
		// every later F value is dominated by one the main loop already
		// produced). H cells raised here also re-feed the E column —
		// the scalar recurrence allows a gap-gap corner, so exact
		// equality needs E to see the corrected H.
	lazyF:
		for k := 0; k < refLanes; k++ {
			vF <<= refLaneBits
			for w := 0; w < segLen; w++ {
				vH := cur[w]
				if refLaneSubSat(vF, refLaneSubSat(vH, openExt)) == 0 {
					break lazyF
				}
				vH = refLaneMax(vH, vF)
				if hasPad {
					vH &= masks[w]
				}
				cur[w] = vH
				colBest = refLaneMax(colBest, vH)
				e[w] = refLaneMax(e[w], refLaneSubSat(vH, openExt))
				vF = refLaneSubSat(vF, ext)
			}
		}

		// Top bits survive in the lanes where colBest ≥ best (see refLaneSubSat).
		if ((colBest|refLaneHi)-best)&refLaneHi != 0 {
			m := 0
			for l := 0; l < refLanes; l++ {
				m = max(m, int(colBest>>(refLaneBits*l)&0xFFFF))
			}
			if m > score {
				score, bEnd, unique = m, i+1, true
				best = refPackLane(m)
			} else {
				unique = false // m == score: a second column ties
			}
		}

		cur, prev = prev, cur
	}
	return score, bEnd, unique, true
}

// refStripedScore is the frozen kernel's answer for query a against
// subject b under s.
func refStripedScore(a, b []byte, s Scoring) (score, bEnd int, unique, ok bool) {
	var sc refStripedScratch
	return newRefStripedProfile(a, s).Score(b, &sc)
}

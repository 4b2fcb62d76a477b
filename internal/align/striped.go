package align

// Bit-parallel ("bitvector") Smith–Waterman scoring: a Farrar-style
// query-profile–striped kernel that packs DP lanes into a vector and
// advances them all at once. It has two routes, chosen once at package
// init from CPUID: on amd64 CPUs with AVX2 (and an operating system that
// saves the YMM registers) the columns run in 256-bit registers
// (striped_amd64.s), and everywhere else in one uint64 with plain word
// arithmetic, pure Go. There are two lane geometries on each route:
// 8-bit lanes (eight a uint64, 32 a YMM register) and 16-bit ones (four,
// 16). A pair starts in byte lanes, twice as many cells a vector, and
// widens to 16-bit lanes in place after the first column whose best
// could overflow a byte in the next one. The kernel computes the exact
// affine-gap local alignment score (identical to LocalScore, whose
// recurrences it transposes), but no traceback: the fine phase uses it
// to rank candidates, and it hands the subject column its best cells sit
// in to LocalEndingAt, which traces the transcripts of reported results
// on a strip around it. Both routes compute every cell's exact value,
// so they agree on every answer and on the column a pair widens after.
//
// Layout. The query is striped Farrar-style: with L lanes a vector and
// segLen = ⌈n/L⌉ vectors a column, lane l of vector w holds query
// position l·segLen + w. Striping puts each lane's vertical
// (gap-in-subject) dependency in the same lane of the previous vector, so
// the F state threads through the inner loop as a single carried vector.
// A profile row interleaves each vector of biased scores with its bias
// vector, and the scratch each H vector with its E vector, so the column
// loop walks two arrays. A vector is one uint64 word on the uint64 route
// and four on the AVX2 route, lane l in word l/(64/bits).
//
// F across stripes. What crosses from one lane's stripe into the next is
// carried by a prefix scan (the scan formulation of Farrar's kernel, as
// in Daily's Parasail), not by Farrar's lazy-F loop: under DNA scoring at
// 32 lanes a gap crosses a stripe boundary in nearly every column, and
// the loop then ran several data-dependent passes a column (EXPERIMENTS
// E29). The main loop leaves in its F vector what each lane's stripe
// passes down. Shifted one lane up, that vector is scanned across the
// lanes, Hillis–Steele: Z = max(Z, Z shifted s lanes up − s·segLen·ext)
// for s = 1, 2, 4, …, saturating, which gives every lane the F entering
// its stripe from all the stripes above it. One correction sweep then
// raises H to that F, until F ≤ H − (open+ext) in every lane. This is
// exact: a cell raised by F opens no stronger F than the F that raised
// it, since open+ext ≥ ext, so the scan's F is all that crosses the
// stripes. The sweep leaves E as the main loop fed it: a raised cell's
// E is a gap-gap corner that no H needs (see stripedColumn). A step whose decay reaches
// the lane cap changes no lane, so a profile keeps only the steps below
// it: a 1 000-base query keeps one in byte lanes.
//
// Lanes are unsigned values kept at or below their cap (0x7F, 0x7FFF):
// every DP value is a local-alignment score (≥ 0). Keeping the per-lane
// top bit clear is what makes the branch-free SWAR primitives below
// exact: saturating subtraction and maximum both borrow the spare bit as
// a per-lane comparison flag (the AVX2 route has saturating instructions,
// and keeps the caps so that both routes widen at the same column). A
// 16-bit lane holds any score up to min(n,m)·Match, and Supports refuses
// pairs whose bound could reach its top — those fall back to the scalar
// kernel. A byte lane holds the next column exactly while this column's
// best is at most 127 − Match − Mismatch, since the next column adds at
// most Match + Mismatch to a cell before the bias comes off. After the
// first column past that, the pair widens: its H and E columns are
// re-striped into 16-bit lanes and the remaining subject columns run
// there. Every value computed in bytes was exact, so nothing is
// recomputed.
//
// Padding. Lanes past the query's end (positions ≥ n) are rows below the
// matrix. Their bias is the whole lane, so their diagonal H is 0; they
// are reached only by a gap down from the last query row, and a path
// that drops into them and runs along them is worth less than the same
// run along the last row. So a padding cell is 0 or below its column's
// best, and the column best needs no mask. Nothing flows from padding
// back into the query's rows.
//
// The geometry is the lane type, a type parameter: uint8 and uint16 are
// distinct shapes, so the compiler builds each generic function below
// once per geometry with the lane constants folded in.

import "nucleodb/internal/dna"

// lane is the type of one SWAR lane: a uint64 holds 64/bits of them.
// Each helper below derives its constants from ^T(0) itself rather than
// calling another: a generic call inside a generic function goes through
// the instantiation's dictionary and is never inlined.
type lane interface{ uint8 | uint16 }

// laneBits returns the bits per lane.
func laneBits[T lane]() uint {
	if ^T(0) > 0xFF {
		return 16
	}
	return 8
}

// laneCap returns the largest value a lane may hold: its top bit must
// stay clear for laneSubSat and laneMax to be exact.
func laneCap[T lane]() int { return int(^T(0) >> 1) }

// laneHi returns every lane's top bit.
func laneHi[T lane]() uint64 {
	full := uint64(^T(0))
	return ^uint64(0) / full * (full>>1 + 1)
}

// packLane broadcasts v (0 ≤ v ≤ laneCap) into every lane.
func packLane[T lane](v int) uint64 { return uint64(v) * (^uint64(0) / uint64(^T(0))) }

// laneSubSat returns x−y per lane, saturated at 0 (the DP's "clamp
// negative scores to zero"). Both operands must be ≤ laneCap in every
// lane. Setting each lane's top bit in x prevents borrows from crossing
// lanes; the surviving top bit then flags the lanes where x ≥ y, and
// t − t/top turns each flag into a mask of its lane's low bits, which
// keeps exactly those differences and drops the flag.
func laneSubSat[T lane](x, y uint64) uint64 {
	full := uint64(^T(0))
	top := full>>1 + 1
	hi := ^uint64(0) / full * top
	z := (x | hi) - y
	t := z & hi
	return z & (t - t/top)
}

// laneMax returns the per-lane maximum of x and y (lanes ≤ laneCap):
// y plus the saturated difference x − y, computed as laneSubSat does.
func laneMax[T lane](x, y uint64) uint64 {
	full := uint64(^T(0))
	top := full>>1 + 1
	hi := ^uint64(0) / full * top
	z := (x | hi) - y
	t := z & hi
	return y + z&(t-t/top)
}

// laneTop returns the largest lane of x.
func laneTop[T lane](x uint64) int {
	m := T(0)
	for ; x != 0; x /= uint64(^T(0)) + 1 {
		m = max(m, T(x))
	}
	return int(m)
}

// walker walks the subject columns b through the H/E columns he, with
// the profile rows prof ((dna.NumCodes+1) rows of len(he) words), the
// packed decays of the cross-lane scan's steps and the packed gap
// penalties, until a column holds a lane at or above best (packed). It
// returns that column's index and its best lane, or len(b) and 0 when no
// column does.
type walker func(he, prof, decay []uint64, b []byte, openExt, ext, best uint64) (i, m int)

// route is one implementation of the striped column: how many uint64
// words a vector spans and the kernel of each lane geometry.
type route struct {
	name         string
	vec          int
	narrow, wide walker
}

// swar is the portable route: one uint64 a vector, SWAR arithmetic.
var swar = route{name: "uint64", vec: 1, narrow: walkColumns[uint8], wide: walkColumns[uint16]}

// fastest is the route Build takes: the vector route when this CPU has
// one, else swar.
var fastest = func() route {
	if r, ok := vectorRoute(); ok {
		return r
	}
	return swar
}()

// neverMatches is the profile row of a subject byte outside the code
// space.
const neverMatches = dna.NumCodes

// stripes is a query profile striped in one lane geometry: for every
// subject code, the biased substitution scores of all query positions,
// in stripe order, plus the gap penalties packed for that geometry.
type stripes struct {
	segLen int // vectors per column
	vec    int // uint64 words per vector
	// prof holds (dna.NumCodes+1) rows of segLen vector pairs: the scores
	// biased by Mismatch, then the bias (Mismatch at query positions,
	// laneCap at padding).
	prof    []uint64
	openExt uint64 // packed GapOpen+GapExtend
	ext     uint64 // packed GapExtend
	// decay holds, packed, the decay s·segLen·GapExtend of each step of
	// the cross-lane scan (s = 1, 2, 4, …) that stays below the lane cap.
	decay []uint64
	walk  walker // the route's kernel of this geometry
}

// buildStripes stripes q under s in T lanes of route r into t, reusing
// its backing storage. The biased scores and the gap penalties must fit
// the lanes.
func buildStripes[T lane](t *stripes, q []byte, s Scoring, r route) {
	n := len(q)
	bits := laneBits[T]()
	perWord := int(64 / bits)
	lanes := perWord * r.vec
	segLen := (n + lanes - 1) / lanes
	t.segLen, t.vec = segLen, r.vec
	t.openExt = packLane[T](s.GapOpen + s.GapExtend)
	t.ext = packLane[T](s.GapExtend)
	t.decay = t.decay[:0]
	for step := 1; step < lanes && step*segLen*s.GapExtend < laneCap[T](); step *= 2 {
		t.decay = append(t.decay, packLane[T](step*segLen*s.GapExtend))
	}
	t.walk = r.wide
	if bits == 8 {
		t.walk = r.narrow
	}

	rows, words := int(neverMatches)+1, t.words() // one row per code plus the never-matches row
	if cap(t.prof) < rows*words {
		t.prof = make([]uint64, rows*words)
	}
	t.prof = t.prof[:rows*words]
	clear(t.prof)
	for c := 0; c < rows; c++ {
		row := t.prof[c*words : (c+1)*words]
		for w := 0; w < segLen; w++ {
			scores, bias := row[2*w*r.vec:(2*w+1)*r.vec], row[(2*w+1)*r.vec:(2*w+2)*r.vec]
			for l := 0; l < lanes; l++ {
				word, shift := l/perWord, bits*uint(l%perWord)
				pos := l*segLen + w
				if pos >= n {
					bias[word] |= uint64(laneCap[T]()) << shift // padding: its diagonal H is 0
					continue
				}
				sc := -s.Mismatch // subject byte outside the code space
				if c < int(neverMatches) {
					sc = s.Score(q[pos], byte(c))
				}
				scores[word] |= uint64(sc+s.Mismatch) << shift
				bias[word] |= uint64(s.Mismatch) << shift
			}
		}
	}
}

// words returns the uint64 words of one H/E column, and of one profile
// row: segLen vector pairs.
func (t *stripes) words() int { return 2 * t.segLen * t.vec }

// StripedScratch is the mutable state of one striped score
// evaluation: the H and E (gap-in-query direction) columns of each lane
// geometry, interleaved word by word. One scratch belongs to one
// goroutine at a time; each core.Searcher keeps one and reuses it
// across candidates.
type StripedScratch struct {
	wide   []uint64 // 16-bit H/E columns, resized and reused across subjects
	narrow []uint64 // byte-lane H/E columns, likewise
	// widenedAt is the number of subject columns the last Score call ran
	// in byte lanes before it widened, or −1 if it did not widen. Only the
	// tests read it.
	widenedAt int
}

// columns returns *he resized to an H/E column of words uint64 words and
// zeroed (the DP boundary), growing it once to the high-water mark.
// The columns belong to the scratch and are reused by its next call.
func columns(he *[]uint64, words int) []uint64 {
	if cap(*he) < words {
		*he = make([]uint64, words) // grows once to the longest query
	}
	*he = (*he)[:words]
	clear(*he)
	return *he
}

// StripedProfile is the striped query profile of the bitvector kernel,
// in both lane geometries of the route Build takes. Building it costs
// O(16·n) per geometry once per query strand; scoring a subject then
// never calls Scoring.Score. A profile is immutable after Build and safe
// for concurrent Score calls with distinct scratches.
type StripedProfile struct {
	n      int     // query length
	wide   stripes // 16-bit lanes
	narrow stripes // byte lanes, built when narrowTop > 0
	// narrowTop is the largest column best whose next column the byte
	// lanes still hold (127 − Match − Mismatch); 0 when the scoring
	// leaves a byte no headroom.
	narrowTop int
	// maxMin is the largest min(query, subject) length whose score
	// bound fits the 16-bit lanes; 0 marks a scoring whose parameters
	// alone overflow (Supports then always refuses).
	maxMin int
}

// NewStripedProfile builds the striped profile of query q under s. The
// returned profile always builds; Supports reports per-subject whether
// the lanes can hold the score bound.
func NewStripedProfile(q []byte, s Scoring) *StripedProfile {
	p := &StripedProfile{}
	p.Build(q, s)
	return p
}

// Build (re)initialises the profile for a new query, reusing backing
// storage — the searcher rebuilds one pooled profile per strand.
func (p *StripedProfile) Build(q []byte, s Scoring) { p.build(q, s, fastest) }

// build is Build on route r.
func (p *StripedProfile) build(q []byte, s Scoring, r route) {
	p.n = len(q)
	// 16-bit capacity: the top score of a local alignment of lengths
	// (n, m) is min(n,m)·Match, and the pre-bias add in the inner loop
	// peaks at that plus Match+Mismatch. Refuse anything that could
	// touch the per-lane top bit.
	p.maxMin, p.narrowTop = 0, 0
	wideCap, narrowCap := laneCap[uint16](), laneCap[uint8]()
	if s.Match <= 0 || s.Match+s.Mismatch > wideCap || s.GapOpen+s.GapExtend > wideCap {
		return
	}
	p.maxMin = (wideCap - s.Match - s.Mismatch) / s.Match
	buildStripes[uint16](&p.wide, q, s, r)
	// Byte lanes first whenever they have headroom and the gap penalties
	// fit them. Little headroom only means an early widening: the byte
	// columns before it are cheaper, and the re-striping costs O(n).
	if top := narrowCap - s.Match - s.Mismatch; top > 0 && s.GapOpen+s.GapExtend <= narrowCap {
		p.narrowTop = top
		buildStripes[uint8](&p.narrow, q, s, r)
	}
}

// Supports reports whether the lanes can hold the DP values of this
// query against a subject of length lb. Callers fall back to the
// scalar kernel when it returns false ("queries longer than the
// striping supports" — though the binding length is whichever sequence
// is shorter, since that bounds the score).
func (p *StripedProfile) Supports(lb int) bool {
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
func (p *StripedProfile) Score(b []byte, sc *StripedScratch) (score, bEnd int, unique, ok bool) {
	sc.widenedAt = -1
	if p.n == 0 || len(b) == 0 {
		return 0, 0, false, true
	}
	if !p.Supports(len(b)) {
		return 0, 0, false, false
	}
	var at column
	if p.narrowTop > 0 {
		narrow := columns(&sc.narrow, p.narrow.words())
		if at = scan[uint8](&p.narrow, b, narrow, p.narrowTop, at); at.next == len(b) {
			return at.score, at.bEnd, at.unique, true
		}
		sc.widenedAt = at.next
	}
	wide := columns(&sc.wide, p.wide.words())
	if at.next > 0 {
		restripe(wide, sc.narrow, p.n, p.wide.vec)
	}
	at = scan[uint16](&p.wide, b, wide, laneCap[uint16](), at)
	return at.score, at.bEnd, at.unique, true
}

// column is where a scan of the subject columns stands: the next column
// to run, and the best score so far with the end of the first column
// holding it and whether it is the only one.
type column struct {
	next, score, bEnd int
	unique            bool
}

// scan runs subject columns b[at.next:] in T lanes through the H/E
// columns he, carrying at's best. It stops after the first column whose
// best exceeds top, and returns where it stands.
func scan[T lane](t *stripes, b []byte, he []uint64, top int, at column) column {
	prof := t.prof[:(int(neverMatches)+1)*len(he)] // every row the kernel may read
	for at.next < len(b) {
		// The kernel returns only at a column whose best reaches
		// max(score, 1): one that sets or ties the score.
		i, m := t.walk(he, prof, t.decay, b[at.next:], t.openExt, t.ext, packLane[T](max(at.score, 1)))
		if i += at.next; i == len(b) {
			break
		}
		if m > at.score {
			at.score, at.bEnd, at.unique = m, i+1, true
		} else {
			at.unique = false // m == score: a second column ties
		}
		at.next = i + 1
		// Every earlier column was at most top, and so is the score: a
		// column past top always reaches this test.
		if m > top {
			return at
		}
	}
	at.next = len(b)
	return at
}

// walkColumns is the uint64 route's kernel: stripedColumn for each
// subject column, until one has a lane at or above best.
func walkColumns[T lane](he, prof, decay []uint64, b []byte, openExt, ext, best uint64) (i, m int) {
	words, hi := len(he), laneHi[T]()
	for i, c := range b {
		c = min(c, neverMatches)
		colBest := stripedColumn[T](he, prof[int(c)*words:(int(c)+1)*words], decay, openExt, ext)
		// Top bits survive in the lanes where colBest ≥ best (see
		// laneSubSat).
		if ((colBest|hi)-best)&hi != 0 {
			return i, laneTop[T](colBest)
		}
	}
	return len(b), 0
}

// stripedColumn advances the interleaved H/E column he by one subject
// column whose profile row is prof, and returns the column's lane-wise
// best H. decay holds the packed decays of the cross-lane scan's steps.
// It is a leaf function, so its loop-carried vectors have the registers
// to themselves.
func stripedColumn[T lane](he, prof, decay []uint64, openExt, ext uint64) (colBest uint64) {
	prof = prof[:len(he)]
	// Diagonal carry-in: the previous column's last H word, shifted one
	// lane up, so lane l starts from lane l−1's stripe end. Lane 0 gets
	// the zero boundary.
	vH := he[len(he)-2] << laneBits[T]()
	var vF uint64
	for w := 0; w+1 < len(he); w += 2 {
		// H = max(0, diag + W, E, F). The profile is biased by Mismatch
		// so the add stays non-negative; the saturating subtract of the
		// word's bias restores the true value and clamps at zero in one
		// step (and zeroes a padding lane's diagonal).
		vH = laneSubSat[T](vH+prof[w], prof[w+1])
		vE := he[w+1]
		vH = laneMax[T](laneMax[T](vH, vE), vF)
		colBest = laneMax[T](colBest, vH)

		// Next-column E and next-word F, both fed by H − (open+ext)
		// and decayed by ext.
		vHGap := laneSubSat[T](vH, openExt)
		he[w+1] = laneMax[T](laneSubSat[T](vE, ext), vHGap)
		vF = laneMax[T](laneSubSat[T](vF, ext), vHGap)

		// The old H is the next word's diagonal input.
		vH, he[w] = he[w], vH
	}

	// vF holds what each lane's stripe passes down. Shifted one lane up
	// and scanned across the lanes, it becomes the F entering each
	// stripe from every stripe above it, decayed by segLen·ext a lane.
	// When the shifted vector raises no cell of the first vector (the
	// sweep's exit test there), the main loop's F dominates it down every
	// stripe, so what each stripe passes down already holds what crossed
	// into it: the scan would change nothing, and the column is done.
	vF <<= laneBits[T]()
	if laneSubSat[T](vF, laneSubSat[T](he[0], openExt)) == 0 {
		return colBest
	}
	// No lane reaches another when every lane is within the first step's
	// decay, segLen·ext: the scan would change nothing then either.
	if len(decay) > 0 && laneSubSat[T](vF, decay[0]) != 0 {
		for step, d := range decay {
			vF = laneMax[T](vF, laneSubSat[T](vF<<(laneBits[T]()<<step), d))
		}
	}
	// The correction sweep raises H to F down the stripes. It stops once
	// F ≤ H − (open+ext) in every lane: the main loop's F from there on
	// already dominates this one, so it raises no later cell.
	//
	// It does not re-feed E from a raised cell, though the scalar
	// recurrence would: no H depends on that E (EXPERIMENTS E29). A cell
	// (i, j) raised to F holds a path that runs down column j from some
	// (i−k, j), and would feed E(i, j+1) that path turned right:
	// H(i−k, j) − 2·open − (k+1)·ext. The path that turns right first,
	// at (i−k, j), and then runs down column j+1 reaches (i, j+1) with
	// the same value, and column j+1's own main loop, scan and sweep
	// compute it. So every H, and with it every score, column best and
	// widening, is the same; E only ever reaches an answer through H.
	for w := 0; w+1 < len(he); w += 2 {
		vH := he[w]
		if laneSubSat[T](vF, laneSubSat[T](vH, openExt)) == 0 {
			break
		}
		vH = laneMax[T](vH, vF)
		he[w] = vH
		colBest = laneMax[T](colBest, vH)
		vF = laneSubSat[T](vF, ext)
	}
	return colBest
}

// restripe copies the first n query positions of a byte-lane H/E column
// into the 16-bit layout, vectors of vec words each. Padding lanes of
// wide are left 0: nothing flows from them into the query's rows, and a
// padding cell at 0 is still 0 or below its column's best.
func restripe(wide, narrow []uint64, n, vec int) {
	clear(wide)
	segNarrow, segWide := len(narrow)/(2*vec), len(wide)/(2*vec)
	for pos := 0; pos < n; pos++ {
		from, lf := 2*vec*(pos%segNarrow), pos/segNarrow // vector pair, lane
		to, lt := 2*vec*(pos%segWide), pos/segWide
		for k := 0; k < 2; k++ { // H, then E
			v := uint8(narrow[from+k*vec+lf/8] >> (8 * (lf % 8)))
			wide[to+k*vec+lt/4] |= uint64(v) << (16 * (lt % 4))
		}
	}
}

// StripedLocalScore is the one-shot form of the bitvector kernel: it
// builds the profile, scores a against b, and reports whether the pair
// was within lane capacity. Equivalent to LocalScore(a, b, s)'s score
// when ok; the fine phase uses the profile/scratch form to amortise
// the build across candidates.
func StripedLocalScore(a, b []byte, s Scoring) (score int, ok bool) {
	var sc StripedScratch
	score, _, _, ok = NewStripedProfile(a, s).Score(b, &sc)
	return score, ok
}

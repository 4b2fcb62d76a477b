package align

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleodb/internal/dna"
)

// passRoutes are the routes the banded suites run the kernels on: the
// Go pass always, and whenever this CPU has the AVX2 route, that route
// twice — as the kernels take it, with its int16 passes for every pass
// that fits them, and without them ("avx2-int32"), so every pass runs in
// int32 lanes too.
func passRoutes() []*passRoute {
	if r, ok := vectorPass(); ok {
		wide := r
		wide.name, wide.score16, wide.trace16 = r.name+"-int32", nil, nil
		return []*passRoute{&goPass, &wide, &r}
	}
	return []*passRoute{&goPass}
}

// routedScratch returns a scratch whose passes run on every route
// through routedPass.
func routedScratch(t testing.TB) *BandedScratch {
	return &BandedScratch{route: routedPass(t)}
}

// routedPass is a route that runs each pass on the Go pass and, when
// this CPU has the AVX2 route, on its int32 passes and, whenever the
// pass fits them, its int16 passes, each from the same state of the
// caller's scratch, and fails t unless they all return the Go pass's
// best and end and leave its H and E rows (the int16 ones compared
// widened) and direction bytes, cell for cell. The slots past each
// slice, up to eight of them and narrowPad past the int16 rows, must be
// left alone too. A gap extension of maxVectorExt or more, which the
// kernels never hand the int32 vector passes, skips them.
func routedPass(t testing.TB) *passRoute {
	d := newPassDiff(t)
	return &passRoute{name: "routed", score: d.score, trace: d.trace}
}

// passDiff is routedPass' state: the test, the AVX2 route (nil without
// one), the scratch before and after the Go route, the int16 rows, and
// how many passes ran on the int32 and on the int16 vector passes.
type passDiff struct {
	t             testing.TB
	vector        *passRoute
	before, after passState
	h16, e16      narrowState
	wide, narrow  int
}

func newPassDiff(t testing.TB) *passDiff {
	d := &passDiff{t: t}
	if r, ok := vectorPass(); ok {
		d.vector = &r
	}
	return d
}

// passState is one pass's slices, or a copy of them with the slots past
// each.
type passState struct {
	h, e []int32
	dir  []byte
}

// narrowState is an int16 row for the narrow passes, made from an int32
// row and its slots past, and a copy of it as made.
type narrowState struct {
	row, made []int16
}

// load makes s from the int32 row r, whose first n slots the pass uses:
// sentinels become negInf16, other values are truncated, and narrowPad
// slots of a marker follow.
func (s *narrowState) load(r []int32, n int) []int16 {
	s.row = s.row[:0]
	for _, v := range r {
		if v == negInf {
			s.row = append(s.row, negInf16)
		} else {
			s.row = append(s.row, int16(v))
		}
	}
	for range narrowPad {
		s.row = append(s.row, 0x5a5a)
	}
	s.made = append(s.made[:0], s.row...)
	return s.row[:n]
}

// differs names the first slot where s, widened, is not the int32 row
// want over the first n slots, or differs from what load made past
// them; or returns "".
func (s *narrowState) differs(name string, want []int32, n int) string {
	for x, v := range s.row {
		switch {
		case x < n && v == negInf16 && want[x] == negInf:
		case x < n && int32(v) != want[x]:
			return fmt.Sprintf("%s[%d] = %d, Go pass %d", name, x, v, want[x])
		case x >= n && v != s.made[x]:
			return fmt.Sprintf("%s[%d], past the row, = %d, was %d", name, x, v, s.made[x])
		}
	}
	return ""
}

// passResult is what a pass returns.
type passResult struct {
	best       int32
	aEnd, bEnd int
}

// past returns s with up to eight slots past its end.
func past[T int32 | byte](s []T) []T { return s[:min(cap(s), len(s)+8)] }

// save copies the pass's slices, and the slots past them, into st.
func (st *passState) save(p passState) {
	st.h = append(st.h[:0], past(p.h)...)
	st.e = append(st.e[:0], past(p.e)...)
	st.dir = append(st.dir[:0], past(p.dir)...)
}

// restore copies st back into the pass's slices.
func (st *passState) restore(p passState) {
	copy(past(p.h), st.h)
	copy(past(p.e), st.e)
	copy(past(p.dir), st.dir)
}

// differs names the first slot where p is not st, or returns "".
func (st *passState) differs(p passState) string {
	for _, c := range []struct {
		name      string
		got, want []int32
	}{{"h", past(p.h), st.h}, {"e", past(p.e), st.e}} {
		if x := firstDiff(c.got, c.want); x >= 0 {
			return fmt.Sprintf("%s[%d] = %d, Go pass %d", c.name, x, c.got[x], c.want[x])
		}
	}
	return st.dirDiffers(p)
}

// dirDiffers names the first direction byte where p is not st, or
// returns "".
func (st *passState) dirDiffers(p passState) string {
	if got := past(p.dir); firstDiff(got, st.dir) >= 0 {
		x := firstDiff(got, st.dir)
		return fmt.Sprintf("dir[%d] = %#x, Go pass %#x", x, got[x], st.dir[x])
	}
	return ""
}

// firstDiff returns the first index where a and b differ, or −1.
func firstDiff[T int32 | byte](a, b []T) int {
	for x := range a {
		if a[x] != b[x] {
			return x
		}
	}
	return -1
}

// narrowTop returns the largest score a pass of rows [first, end) over p
// can reach — its rows' largest cell plus Match a row — and whether the
// rows hold only sentinels and cells of at least 0, as the narrow passes
// need.
func narrowTop(p passState, t *Subst, first, end int) (int64, bool) {
	var top int32
	for _, r := range [][]int32{p.h, p.e} {
		for _, v := range r {
			if v < 0 && v != negInf {
				return 0, false
			}
			top = max(top, v)
		}
	}
	return int64(top) + int64(t.scoring.Match)*int64(end-first), true
}

func (d *passDiff) score(h, e []int32, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int) {
	want, fail := d.run(passState{h, e, nil}, t, first, end, best, func(r *passRoute) passResult {
		v, aEnd, bEnd := r.score(h, e, a, b, lo, width, first, end, t, best)
		return passResult{v, aEnd, bEnd}
	}, func(r *passRoute, h, e []int16, best int32) passResult {
		v, aEnd, bEnd := r.score16(h, e, a, b, lo, width, first, end, t, best)
		return passResult{v, aEnd, bEnd}
	})
	if fail != "" {
		d.t.Fatalf("%s (score pass of rows [%d,%d) of %d, %d-base subject, lo %d, width %d, %+v, best %d)",
			fail, first, end, len(a), len(b), lo, width, t.scoring, best)
	}
	return want.best, want.aEnd, want.bEnd
}

func (d *passDiff) trace(h, e []int32, dir, a, b []byte, lo, width, first, end int, t *Subst, best int32) (int32, int, int) {
	want, fail := d.run(passState{h, e, dir}, t, first, end, best, func(r *passRoute) passResult {
		v, aEnd, bEnd := r.trace(h, e, dir, a, b, lo, width, first, end, t, best)
		return passResult{v, aEnd, bEnd}
	}, func(r *passRoute, h, e []int16, best int32) passResult {
		v, aEnd, bEnd := r.trace16(h, e, dir, a, b, lo, width, first, end, t, best)
		return passResult{v, aEnd, bEnd}
	})
	if fail != "" {
		d.t.Fatalf("%s (trace pass of rows [%d,%d) of %d, %d-base subject, lo %d, width %d, %+v, best %d)",
			fail, first, end, len(a), len(b), lo, width, t.scoring, best)
	}
	return want.best, want.aEnd, want.bEnd
}

// run runs one pass on every route from the same state of p: call on
// the int32 rows, call16 on int16 rows made from them. It returns the Go
// pass's result, and how another route differed from it, or "". It
// does not mark itself a test helper: that walks the stack, which costs
// more than a short pass.
func (d *passDiff) run(p passState, t *Subst, first, end int, best int32, call func(*passRoute) passResult, call16 func(*passRoute, []int16, []int16, int32) passResult) (passResult, string) {
	top, narrow := narrowTop(p, t, first, end)
	narrow = narrow && t.fitsNarrow(top)
	d.before.save(p)
	want := call(&goPass)
	if d.vector == nil {
		return want, ""
	}
	d.after.save(p)
	if t.ext < maxVectorExt {
		d.wide++
		d.before.restore(p)
		got := call(d.vector)
		if diff := d.after.differs(p); got != want || diff != "" {
			return want, mismatch(d.vector.name+"-int32", got, want, diff)
		}
	}
	if narrow {
		d.narrow++
		d.before.restore(p)
		h := d.h16.load(d.before.h, len(p.h))
		e := d.e16.load(d.before.e, len(p.e))
		got := call16(d.vector, h, e, min(best, narrowMax+1))
		if got.aEnd == 0 {
			got.best = best // a best past every cell, clamped for the call
		}
		diff := cmp.Or(d.h16.differs("h", d.after.h, len(p.h)), d.e16.differs("e", d.after.e, len(p.e)), d.after.dirDiffers(p))
		if got != want || diff != "" {
			return want, mismatch(d.vector.name+"-int16", got, want, diff)
		}
	}
	return want, ""
}

// mismatch describes how route name's pass differed from the Go pass.
func mismatch(name string, got, want passResult, diff string) string {
	return fmt.Sprintf("%s pass: best %d, end (%d,%d); Go pass %d, (%d,%d); %s",
		name, got.best, got.aEnd, got.bEnd, want.best, want.aEnd, want.bEnd, diff)
}

// TestBandedPassRoutes drives the passes directly on every route, laid
// out as BandedScratch.rows lays them out but dirty, over the shapes
// the kernels hand them and more: bands 1, 3, 17, 49 and 701 wide
// (rows of every tail, a whole block and more), subjects narrower and
// wider than the band, bands that enter the matrix late and leave it
// early (rows clipped at the subject's start and end), the whole band
// or a pass of one row or of a middle run of rows, and a best so far of
// 0, of a few matches or beyond every cell; query codes anywhere in
// 0–255 (the table row's clamp), subject bytes all bases or anywhere in
// 0–255 (wildcards, junk and Masked take the gather and, in int16 lanes,
// the clamp to 15); H and E from zero to scores far past a byte, and in
// a fifth of the passes up to the largest the int16 passes take; and
// every scoring of the striped suites plus one at scores of 2·10^8.
//
// Then the passes at the edges of the int16 route: a pass whose bound
// is exactly narrowMax, which runs in int16 lanes, and one a point over,
// which does not; a scoring with a substitution score past int8 (Match
// 200); a gap extension at the int16 scan's limit and one past it; gaps
// of 800 a base, which the scan carries across lanes and halves; and
// subjects of wildcards, junk and Masked bytes in whole blocks, in last
// blocks and in rows shorter than a block.
func TestBandedPassRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(3801))
	d := newPassDiff(t)
	scorings := append(slices.Clone(stripedScorings), Scoring{Match: 1 << 18, Mismatch: 1 << 17, GapOpen: 1 << 19, GapExtend: 1 << 16})
	trials := 30
	if testing.Short() {
		trials = 8
	}
	var beat, kept int // passes that moved the best, and that kept it
	for _, s := range scorings {
		sub := NewSubst(s)
		for _, band := range []int{0, 1, 8, 24, 350} {
			width := 2*band + 1
			for trial := 0; trial < trials; trial++ {
				la := 1 + rng.Intn(40)
				lb := []int{1 + rng.Intn(width), width + rng.Intn(3*width+40)}[trial%2]
				lo := rng.Intn(lb+width+la) - width - la/2 // from left of the matrix to right of it
				first, end := bandRows(la, lb, lo, width)
				if first >= end {
					continue
				}
				switch trial % 4 {
				case 1: // one row
					first += rng.Intn(end - first)
					end = first + 1
				case 2: // a middle run of rows
					first += rng.Intn(end - first)
					end = first + 1 + rng.Intn(end-first)
				}
				a := make([]byte, la)
				rng.Read(a)
				if trial%3 != 0 {
					copy(a, randomSeq(rng, la))
				}
				b := randomSeq(rng, lb)
				if trial%4 == 3 {
					rng.Read(b)
				}
				top := int32(min(2000*s.Match, 1<<28))
				if trial%5 == 2 && sub.narrowSpan >= 0 {
					// The largest cells the int16 passes take.
					top = int32(max(narrowMax-sub.narrowSpan-int64(s.Match*(end-first)), 0))
				}
				// Dirty rows with eight slots past each, the sentinels where
				// BandedScratch.rows puts them.
				h, e := make([]int32, width+2+8), make([]int32, width+1+8)
				for x := range h {
					h[x] = rng.Int31n(top + 1)
				}
				for x := range e {
					e[x] = rng.Int31n(top + 1)
				}
				if trial%3 == 0 { // mostly small values, as a weak band holds
					for x := range h {
						h[x] %= 4 * int32(s.Match)
					}
				}
				h, e = h[:width+2], e[:width+1]
				h[0], h[width+1], e[width] = negInf, negInf, negInf
				dir := make([]byte, la*width+8)
				rng.Read(dir)
				best := []int32{0, int32(3 * s.Match), 1<<30 - 1}[trial%3]
				if _, aEnd, _ := d.score(h, e, a, b, lo, width, first, end, sub, best); aEnd > 0 {
					beat++
				} else {
					kept++
				}
				d.trace(h, e, dir[:la*width], a, b, lo, width, first, end, sub, best)
			}
		}
	}
	if beat < 2*trials || kept < 2*trials {
		t.Fatalf("%d passes moved the best and %d kept it: the fixture no longer reaches both", beat, kept)
	}
	if d.vector != nil && (d.narrow < 20*trials || d.wide < 40*trials) {
		t.Fatalf("%d passes ran on the int16 vector passes and %d on the int32 ones: the fixture no longer reaches both", d.narrow, d.wide)
	}
	t.Logf("%d passes moved the best and %d kept it; %d ran on the int32 vector passes, %d on the int16 ones", beat, kept, d.wide, d.narrow)

	def := DefaultScoring()
	span := NewSubst(def).narrowSpan
	self := randomSeq(rng, 40)
	junk := make([]byte, 300)
	for x := range junk {
		junk[x] = []byte{0, 1, 2, 3, 4, 9, 14, 15, 16, 0x1f, 0x20, 0x80, 0x8f, 0xf0, Masked}[rng.Intn(15)]
	}
	wild := randCodes(rng, 60)
	wild[3], wild[40] = Masked, 0x8f
	for _, c := range []struct {
		name       string
		s          Scoring
		a, b       []byte
		lo, width  int
		fill       int32 // every cell of the rows
		wantNarrow bool
	}{
		// 40 rows of a self-match: 16130 + 5·40 + span = narrowMax.
		{"bound at narrowMax", def, self, self, -24, 49, int32(narrowMax - span - 5*40), true},
		{"bound one over narrowMax", def, self, self, -24, 49, int32(narrowMax - span - 5*40 + 1), false},
		{"Match past int8", Scoring{Match: 200, Mismatch: 100, GapOpen: 10, GapExtend: 2}, self, self, -24, 49, 0, false},
		// 1 + 0 + 963 + 16·963 + 10 rows + 1 = narrowMax.
		{"GapExtend at the scan's limit", Scoring{Match: 1, Mismatch: 0, GapOpen: 0, GapExtend: 963}, self[:10], self, -24, 49, 1, true},
		{"GapExtend past the scan's limit", Scoring{Match: 1, Mismatch: 0, GapOpen: 0, GapExtend: 964}, self[:1], self, -24, 49, 0, false},
		{"gaps of 800", Scoring{Match: 10, Mismatch: 10, GapOpen: 0, GapExtend: 800}, self[:30], randomSeq(rng, 80), -30, 61, 2000, true},
		{"junk in whole and last blocks", def, wild, junk, -24, 49, 30, true},
		{"junk in a wide band", def, wild, junk, -30, 61, 30, true},
		{"junk in rows under a block", def, wild, junk, -4, 9, 30, true},
	} {
		sub := NewSubst(c.s)
		first, end := bandRows(len(c.a), len(c.b), c.lo, c.width)
		h, e := make([]int32, c.width+2+8), make([]int32, c.width+1+8)
		for x := range h {
			h[x] = c.fill
		}
		for x := range e {
			e[x] = c.fill
		}
		h, e = h[:c.width+2], e[:c.width+1]
		h[0], h[c.width+1], e[c.width] = negInf, negInf, negInf
		dir := make([]byte, len(c.a)*c.width)
		wide, narrow := d.wide, d.narrow
		d.score(h, e, c.a, c.b, c.lo, c.width, first, end, sub, 0)
		d.trace(h, e, dir, c.a, c.b, c.lo, c.width, first, end, sub, 0)
		if d.vector == nil {
			continue
		}
		if ran := d.narrow > narrow; ran != c.wantNarrow || d.wide != wide+2 {
			t.Errorf("%s: %d passes ran in int16 lanes and %d in int32 lanes, want int16 %v", c.name, d.narrow-narrow, d.wide-wide, c.wantNarrow)
		}
	}
}

// TestNarrowCapacity pins the kernels' choice of lanes at its edge:
// fitsNarrow admits a top of narrowMax less the span and not one more;
// a self-match of 3 266 bases scores 16 330, which with the default
// scoring's span of 53 is narrowMax, and runs in int16 lanes; one of
// 3 267 bases runs in int32 lanes. Both hold to the Go pass.
func TestNarrowCapacity(t *testing.T) {
	sub := NewSubst(DefaultScoring())
	if sub.narrowSpan != 53 {
		t.Fatalf("default narrowSpan %d, want 5 + 4 + 12 + 16·2 = 53", sub.narrowSpan)
	}
	if !sub.fitsNarrow(narrowMax-53) || sub.fitsNarrow(narrowMax-52) {
		t.Fatalf("fitsNarrow(%d) = %v, fitsNarrow(%d) = %v; want true, false", narrowMax-53, sub.fitsNarrow(narrowMax-53), narrowMax-52, sub.fitsNarrow(narrowMax-52))
	}
	a := randomSeq(rand.New(rand.NewSource(3802)), 3267)
	for _, n := range []int{3266, 3267} {
		want := n == 3266
		if got := sub.fitsNarrow(int64(5 * n)); got != want {
			t.Fatalf("%d rows of Match 5: fitsNarrow = %v, want %v", n, got, want)
		}
		goScore, _, _ := sub.BandedLocalScore(a[:n], a[:n], 0, 4, &BandedScratch{route: &goPass})
		if goScore != 5*n {
			t.Fatalf("%d-base self-match scores %d, want %d", n, goScore, 5*n)
		}
		checkBandedAgainstRef(t, sub, routedScratch(t), a[:n], a[:n], 0, 4)
		if fastestPass.score16 == nil {
			continue
		}
		var sc BandedScratch
		score, aEnd, bEnd := sub.BandedLocalScore(a[:n], a[:n], 0, 4, &sc)
		al := sub.BandedLocal(a[:n], a[:n], 0, 4, &sc)
		if score != goScore || aEnd != n || bEnd != n || al.Score != goScore || len(al.Ops) != n {
			t.Fatalf("%d-base self-match: (%d,%d,%d), traceback %d over %d columns; want %d at (%d,%d)", n, score, aEnd, bEnd, al.Score, len(al.Ops), goScore, n, n)
		}
		if narrow := sc.h16 != nil; narrow != want || (sc.h != nil) == want {
			t.Fatalf("%d-base self-match ran on int16 rows %v and int32 rows %v, want int16 %v", n, sc.h16 != nil, sc.h != nil, want)
		}
	}
}

// TestBandedPassTies pins the passes' tie rules on every route: an
// equal best in a later row does not move the end, and a best repeated
// inside a row ends at its first column, here in a later block of the
// row than the first.
func TestBandedPassTies(t *testing.T) {
	const (
		A, C, G, T = dna.BaseA, dna.BaseC, dna.BaseG, dna.BaseT
	)
	acgt := []byte{A, C, G, T}
	gs := func(n int) []byte { return bytes.Repeat([]byte{G}, n) }
	sub := NewSubst(DefaultScoring())
	for _, c := range []struct {
		name              string
		a, b              []byte
		centre, band      int
		score, aEnd, bEnd int
	}{
		// Rows 3 and 11 both reach 20 in column 3.
		{"later row", slices.Concat(acgt, []byte{C, C, C, C}, acgt), acgt, 0, 12, 20, 4, 4},
		// Row 3 reaches 20 in columns 13 and 21 of the subject, band
		// cells 12 and 20.
		{"same row", acgt, slices.Concat(gs(10), acgt, gs(4), acgt), 10, 12, 20, 4, 14},
	} {
		for _, r := range passRoutes() {
			sc := BandedScratch{route: r}
			if score, aEnd, bEnd := sub.BandedLocalScore(c.a, c.b, c.centre, c.band, &sc); score != c.score || aEnd != c.aEnd || bEnd != c.bEnd {
				t.Errorf("%s, %s pass: BandedLocalScore = (%d,%d,%d), want (%d,%d,%d)", c.name, r.name, score, aEnd, bEnd, c.score, c.aEnd, c.bEnd)
			}
			if al := sub.BandedLocal(c.a, c.b, c.centre, c.band, &sc); al.Score != c.score || al.AEnd != c.aEnd || al.BEnd != c.bEnd {
				t.Errorf("%s, %s pass: BandedLocal ends (%d,%d,%d), want (%d,%d,%d)", c.name, r.name, al.Score, al.AEnd, al.BEnd, c.score, c.aEnd, c.bEnd)
			}
		}
		checkBandedAgainstRef(t, sub, routedScratch(t), c.a, c.b, c.centre, c.band)
	}
}

// TestVectorPassTakesSmallExtensions pins maxVectorExt: a gap extension
// below it takes the fastest route, one at it the Go pass.
func TestVectorPassTakesSmallExtensions(t *testing.T) {
	var sc BandedScratch
	small := NewSubst(Scoring{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: maxVectorExt - 1})
	big := NewSubst(Scoring{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: maxVectorExt})
	if r := small.passRoute(&sc); r != fastestPass {
		t.Fatalf("ext %d takes the %s pass, want %s", small.ext, r.name, fastestPass.name)
	}
	if r := big.passRoute(&sc); r != &goPass {
		t.Fatalf("ext %d takes the %s pass, want the Go pass", big.ext, r.name)
	}
}

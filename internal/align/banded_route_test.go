package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"nucleodb/internal/dna"
)

// passRoutes are the routes the banded suites hold to each other: the Go
// pass always, and the AVX2 pass whenever this CPU has it.
func passRoutes() []*passRoute {
	if r, ok := vectorPass(); ok {
		return []*passRoute{&goPass, &r}
	}
	return []*passRoute{&goPass}
}

// routedScratch returns a scratch whose passes run on every route
// through routedPass.
func routedScratch(t testing.TB) *BandedScratch {
	return &BandedScratch{route: routedPass(t)}
}

// routedPass is a route that runs each pass on every route of
// passRoutes, each from the same state of the caller's scratch, and
// fails t unless they all return the Go pass's best and end and leave
// its H and E rows and direction bytes, cell for cell. The slots past
// each slice, up to eight of them, must be left alone too. A gap
// extension of maxVectorExt or more, which the kernels never hand the
// vector route, runs on the Go pass only.
func routedPass(t testing.TB) *passRoute {
	d := &passDiff{t: t, routes: passRoutes()}
	return &passRoute{name: "routed", score: d.score, trace: d.trace}
}

// passDiff is routedPass' state: the test and the scratch before and
// after the Go route.
type passDiff struct {
	t             testing.TB
	routes        []*passRoute
	before, after passState
}

// passState is one pass's slices, or a copy of them with the slots past
// each.
type passState struct {
	h, e []int32
	dir  []byte
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

func (d *passDiff) score(h, e []int32, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (int32, int, int) {
	want, fail := d.run(passState{h, e, nil}, ext, func(r *passRoute) passResult {
		v, aEnd, bEnd := r.score(h, e, a, b, lo, width, first, end, tab, openExt, ext, best)
		return passResult{v, aEnd, bEnd}
	})
	if fail != "" {
		d.t.Fatalf("%s (score pass of rows [%d,%d) of %d, %d-base subject, lo %d, width %d, openExt %d, ext %d, best %d)",
			fail, first, end, len(a), len(b), lo, width, openExt, ext, best)
	}
	return want.best, want.aEnd, want.bEnd
}

func (d *passDiff) trace(h, e []int32, dir, a, b []byte, lo, width, first, end int, tab *substTable, openExt, ext, best int32) (int32, int, int) {
	want, fail := d.run(passState{h, e, dir}, ext, func(r *passRoute) passResult {
		v, aEnd, bEnd := r.trace(h, e, dir, a, b, lo, width, first, end, tab, openExt, ext, best)
		return passResult{v, aEnd, bEnd}
	})
	if fail != "" {
		d.t.Fatalf("%s (trace pass of rows [%d,%d) of %d, %d-base subject, lo %d, width %d, openExt %d, ext %d, best %d)",
			fail, first, end, len(a), len(b), lo, width, openExt, ext, best)
	}
	return want.best, want.aEnd, want.bEnd
}

// run runs one pass, call, on every route from the same state of p. It
// returns the Go pass's result, and how another route differed from
// it, or "". It does not mark itself a test helper: that walks the
// stack, which costs more than a short pass.
func (d *passDiff) run(p passState, ext int32, call func(*passRoute) passResult) (passResult, string) {
	d.before.save(p)
	want := call(d.routes[0])
	if ext >= maxVectorExt {
		return want, ""
	}
	d.after.save(p)
	for _, r := range d.routes[1:] {
		d.before.restore(p)
		got := call(r)
		if diff := d.after.differs(p); got != want || diff != "" {
			return want, fmt.Sprintf("%s pass: best %d, end (%d,%d); Go pass %d, (%d,%d); %s",
				r.name, got.best, got.aEnd, got.bEnd, want.best, want.aEnd, want.bEnd, diff)
		}
	}
	return want, ""
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
// 0–255 (wildcards, junk and Masked take the gather); H and E from zero
// to scores far past a byte; and every scoring of the striped suites
// plus one at scores of 2·10^8.
func TestBandedPassRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(3801))
	d := routedPass(t)
	scorings := append(slices.Clone(stripedScorings), Scoring{Match: 1 << 18, Mismatch: 1 << 17, GapOpen: 1 << 19, GapExtend: 1 << 16})
	trials := 30
	if testing.Short() {
		trials = 8
	}
	var beat, kept int // passes that moved the best, and that kept it
	for _, s := range scorings {
		sub := NewSubst(s)
		top := int32(min(2000*s.Match, 1<<28))
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
				if _, aEnd, _ := d.score(h, e, a, b, lo, width, first, end, &sub.tab, sub.openExt, sub.ext, best); aEnd > 0 {
					beat++
				} else {
					kept++
				}
				d.trace(h, e, dir[:la*width], a, b, lo, width, first, end, &sub.tab, sub.openExt, sub.ext, best)
			}
		}
	}
	if beat < 2*trials || kept < 2*trials {
		t.Fatalf("%d passes moved the best and %d kept it: the fixture no longer reaches both", beat, kept)
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

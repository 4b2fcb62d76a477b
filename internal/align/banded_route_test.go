package align

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// rowRoutes are the routes the banded suites hold to each other: the Go
// rows always, and the AVX2 rows whenever this CPU has them.
func rowRoutes() []*rowRoute {
	if r, ok := vectorRows(); ok {
		return []*rowRoute{&goRows, &r}
	}
	return []*rowRoute{&goRows}
}

// routedScratch returns a scratch whose rows run on every route through
// routedRows.
func routedScratch(t testing.TB) *BandedScratch {
	return &BandedScratch{route: routedRows(t)}
}

// routedRows is a route that runs each row on every route of rowRoutes,
// each from the same state of the caller's scratch, and fails t unless
// they all leave the same H and E rows, direction bytes and row best as
// the Go rows, cell for cell. The slots past each slice, up to eight of
// them, must be left alone too. A gap extension of maxVectorExt or more,
// which the kernels never hand the vector route, runs on the Go rows only.
func routedRows(t testing.TB) *rowRoute {
	d := &rowDiff{t: t, routes: rowRoutes()}
	return &rowRoute{name: "routed", score: d.score, trace: d.trace}
}

// rowDiff is routedRows' state: the test and the row before and after
// the Go route.
type rowDiff struct {
	t             testing.TB
	routes        []*rowRoute
	before, after rowState
}

// rowState is one row's slices, or a copy of them with the slots past
// each.
type rowState struct {
	hOut, hUp, eOut, eUp []int32
	dOut                 []byte
}

// past returns s with up to eight slots past its end.
func past[T int32 | byte](s []T) []T { return s[:min(cap(s), len(s)+8)] }

// save copies row's slices, and the slots past them, into st.
func (st *rowState) save(row rowState) {
	st.hOut = append(st.hOut[:0], past(row.hOut)...)
	st.hUp = append(st.hUp[:0], past(row.hUp)...)
	st.eOut = append(st.eOut[:0], past(row.eOut)...)
	st.eUp = append(st.eUp[:0], past(row.eUp)...)
	st.dOut = append(st.dOut[:0], past(row.dOut)...)
}

// restore copies st back into row. The slices overlap in the scratch,
// but every copy was taken at once, so the order does not matter.
func (st *rowState) restore(row rowState) {
	copy(past(row.hOut), st.hOut)
	copy(past(row.hUp), st.hUp)
	copy(past(row.eOut), st.eOut)
	copy(past(row.eUp), st.eUp)
	copy(past(row.dOut), st.dOut)
}

// differs names the first slot where row is not st, or returns "".
func (st *rowState) differs(row rowState) string {
	for _, c := range []struct {
		name      string
		got, want []int32
	}{{"hOut", past(row.hOut), st.hOut}, {"hUp", past(row.hUp), st.hUp}, {"eOut", past(row.eOut), st.eOut}, {"eUp", past(row.eUp), st.eUp}} {
		if x := firstDiff(c.got, c.want); x >= 0 {
			return fmt.Sprintf("%s[%d] = %d, Go rows %d", c.name, x, c.got[x], c.want[x])
		}
	}
	if got := past(row.dOut); firstDiff(got, st.dOut) >= 0 {
		x := firstDiff(got, st.dOut)
		return fmt.Sprintf("dOut[%d] = %#x, Go rows %#x", x, got[x], st.dOut[x])
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

func (d *rowDiff) score(hOut, hUp, eOut, eUp []int32, bs []byte, sub *[256]int32, left, openExt, ext int32) int32 {
	return d.run(rowState{hOut, hUp, eOut, eUp, nil}, left, openExt, ext, func(r *rowRoute) int32 {
		return r.score(hOut, hUp, eOut, eUp, bs, sub, left, openExt, ext)
	})
}

func (d *rowDiff) trace(hOut, hUp, eOut, eUp []int32, dOut, bs []byte, sub *[256]int32, left, openExt, ext int32) int32 {
	return d.run(rowState{hOut, hUp, eOut, eUp, dOut}, left, openExt, ext, func(r *rowRoute) int32 {
		return r.trace(hOut, hUp, eOut, eUp, dOut, bs, sub, left, openExt, ext)
	})
}

// run runs one row, call, on every route from the same state of row.
// It does not mark itself a test helper: that walks the stack, which
// costs more than the row.
func (d *rowDiff) run(row rowState, left, openExt, ext int32, call func(*rowRoute) int32) int32 {
	d.before.save(row)
	best := call(d.routes[0])
	if ext >= maxVectorExt {
		return best
	}
	d.after.save(row)
	for _, r := range d.routes[1:] {
		d.before.restore(row)
		got := call(r)
		if diff := d.after.differs(row); got != best || diff != "" {
			d.t.Fatalf("%s rows: best %d, Go rows %d; %s (a row of %d cells, left %d, openExt %d, ext %d)",
				r.name, got, best, diff, len(row.hOut), left, openExt, ext)
		}
	}
	return best
}

// TestBandedRowRoutes drives the rows directly on every route, laid out
// as BandedScratch.rows lays them out, over the shapes the kernels hand
// them: rows of 1–17 cells (a whole block and every tail), the 49 of the
// default band, and 300–800 of an exact strip; the right sentinel under
// the last cell or a real slot there; left a sentinel, zero or a score;
// H and E rows from zero to scores far past a byte; subject bytes all
// bases, or anywhere in 0–255 (wildcards, junk and Masked take the
// gather); and every scoring of the striped suites plus one at scores of
// 2·10^8.
func TestBandedRowRoutes(t *testing.T) {
	rng := rand.New(rand.NewSource(3801))
	d := routedRows(t)
	scorings := append(slices.Clone(stripedScorings), Scoring{Match: 1 << 18, Mismatch: 1 << 17, GapOpen: 1 << 19, GapExtend: 1 << 16})
	lengths := []int{49, 300, 517, 800}
	for n := 1; n <= 17; n++ {
		lengths = append(lengths, n)
	}
	for _, s := range scorings {
		sub := NewSubst(s)
		top := int32(min(2000*s.Match, 1<<28))
		for _, n := range lengths {
			for trial := 0; trial < 40; trial++ {
				h, e := make([]int32, n+2), make([]int32, n+1)
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
				h[0] = negInf
				if trial%2 == 0 { // the band's right edge: sentinels under the last cell
					h[n+1], e[n] = negInf, negInf
				}
				left := []int32{negInf, 0, h[1]}[trial%3]
				bs := randomSeq(rng, n)
				if trial%4 == 1 {
					bs = make([]byte, n)
					rng.Read(bs)
				}
				code := byte(rng.Intn(256))
				dir := make([]byte, n+8)
				d.score(h[1:n+1], h[2:n+2], e[:n], e[1:n+1], bs, sub.row(code), left, sub.openExt, sub.ext)
				d.trace(h[1:n+1], h[2:n+2], e[:n], e[1:n+1], dir[:n], bs, sub.row(code), left, sub.openExt, sub.ext)
			}
		}
	}
}

// TestVectorRowsTakeSmallExtensions pins maxVectorExt: a gap extension
// below it takes the fastest route, one at it the Go rows.
func TestVectorRowsTakeSmallExtensions(t *testing.T) {
	var sc BandedScratch
	small := NewSubst(Scoring{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: maxVectorExt - 1})
	big := NewSubst(Scoring{Match: 1, Mismatch: 1, GapOpen: 1, GapExtend: maxVectorExt})
	if r := small.rowRoute(&sc); r != fastestRows {
		t.Fatalf("ext %d takes the %s rows, want %s", small.ext, r.name, fastestRows.name)
	}
	if r := big.rowRoute(&sc); r != &goRows {
		t.Fatalf("ext %d takes the %s rows, want the Go rows", big.ext, r.name)
	}
}

package align

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"nucleodb/internal/dna"
)

// laneCase is one batch: a query, a window and a centre per lane, and a
// band.
type laneCase struct {
	name     string
	a        []byte
	windows  [][]byte
	centres  []int
	band     int
	scorings []Scoring
}

// laneDiff runs batches through BandedLocalScoreLanes on every pass
// route, and through the vector batch itself at every lane count where
// the route has one, and counts how many ran on the vector batch and how
// many lane by lane.
type laneDiff struct {
	t              *testing.T
	vector, single int
	out            []LaneScore
}

// check holds every lane of c, on every route and under each of c's
// scorings, DeepEqual to BandedLocalScore on the same route.
func (d *laneDiff) check(c laneCase) {
	d.t.Helper()
	for _, s := range c.scorings {
		sub := NewSubst(s)
		for _, r := range passRoutes() {
			want := make([]LaneScore, len(c.windows))
			one := BandedScratch{route: r}
			for l, w := range c.windows {
				want[l].Score, want[l].AEnd, want[l].BEnd = sub.BandedLocalScore(c.a, w, c.centres[l], c.band, &one)
			}
			sc := BandedScratch{route: r}
			d.out = slices.Grow(d.out[:0], len(c.windows))[:len(c.windows)]
			sub.BandedLocalScoreLanes(c.a, c.windows, c.centres, c.band, &sc, d.out)
			if !reflect.DeepEqual(d.out, want) {
				d.t.Fatalf("%s, %s route, %+v: BandedLocalScoreLanes\n got %v\nwant %v", c.name, r.name, s, d.out, want)
			}
			for from := 0; from < len(c.windows); from += MaxLanes {
				if min(len(c.windows)-from, MaxLanes) >= minVectorLanes && sub.vectorLanes(r, len(c.a), c.band) {
					d.vector++
				} else {
					d.single++
				}
			}
			if !sub.vectorLanes(r, len(c.a), c.band) {
				continue
			}
			// The vector batch below the break-even too, on the dirty
			// scratch.
			for from := 0; from < len(c.windows); from += MaxLanes {
				to := min(from+MaxLanes, len(c.windows))
				clear(d.out)
				sub.scoreLanes(r, c.a, c.windows[from:to], c.centres[from:to], c.band, &sc, d.out[:to-from])
				if got := d.out[:to-from]; !reflect.DeepEqual(got, want[from:to]) {
					d.t.Fatalf("%s, %s route, %+v: the vector batch of lanes [%d,%d)\n got %v\nwant %v", c.name, r.name, s, from, to, got, want[from:to])
				}
			}
		}
	}
}

// windowOf returns the band window of b that the fine phase reads for a
// band at centre over la rows, and the centre on it.
func windowOf(b []byte, centre, band, la int) ([]byte, int) {
	from := min(max(centre-band, 0), len(b))
	to := max(min(centre+band+la, len(b)), from)
	return b[from:to], centre - from
}

// TestBandedLanesMatchSingle holds the batch to BandedLocalScore lane by
// lane, on every pass route, over lane counts 1 to 16 (and 17 to 35,
// which take more than one pass); windows clipped at the subject's start
// and at its end, and subjects narrower than the band; whole subjects
// with centres whose band misses the subject in some rows or in all of
// them; equal bests in later rows and a best repeated in a later block
// of a row; subjects of wildcards, junk and Masked bytes, and queries of
// junk codes; and the int16 capacity's edge, a 3 266-base self-match
// that runs on the vector batch and a 3 267-base one that does not. The
// vector batch also runs directly at every lane count, below the
// break-even included.
func TestBandedLanesMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(4801))
	d := &laneDiff{t: t}
	def := []Scoring{DefaultScoring()}
	trials := 6
	if testing.Short() {
		trials = 2
	}

	// Homologous windows at every lane count, at the default band and
	// at band 12, under every scoring of the striped suites.
	for n := 1; n <= 2*MaxLanes+3; n++ {
		for trial := 0; trial < trials; trial++ {
			la := []int{150, 37, 600}[trial%3]
			band := []int{24, 12, 3}[trial%3]
			q := randomSeq(rng, la)
			c := laneCase{name: fmt.Sprintf("%d lanes, trial %d", n, trial), a: q, band: band, scorings: stripedScorings}
			for l := 0; l < n; l++ {
				subject := randomSeq(rng, 200+rng.Intn(2000))
				at := rng.Intn(len(subject))
				if l%3 != 2 { // a homolog of the query at "at", cut off by the subject's end
					copy(subject[at:], mutate(rng, q, 0.12))
				}
				centre := at + rng.Intn(2*band+1) - band
				w, wc := windowOf(subject, centre, band, la)
				c.windows, c.centres = append(c.windows, w), append(c.centres, wc)
			}
			d.check(c)
		}
	}

	// Clipped windows: the band's start left of the subject, its end
	// past it, and subjects narrower than the band.
	for trial := 0; trial < 4*trials; trial++ {
		q := randomSeq(rng, 20+rng.Intn(200))
		band := []int{24, 12, 0, 1, 40}[trial%5]
		c := laneCase{name: fmt.Sprintf("clipped, trial %d", trial), a: q, band: band, scorings: stripedScorings}
		for l := 0; l < 16; l++ {
			var subject []byte
			var centre int
			switch l % 4 {
			case 0: // the query's start near the subject's
				subject = slices.Concat(mutate(rng, q, 0.1), randomSeq(rng, 300))
				centre = rng.Intn(band+3) - band/2
			case 1: // the query's end past the subject's
				subject = slices.Concat(randomSeq(rng, 300), mutate(rng, q[:len(q)/2], 0.1))
				centre = 300 + rng.Intn(2*band+1) - band
			case 2: // narrower than the band
				subject = mutate(rng, q[:min(len(q), 1+rng.Intn(2*band+1))], 0.1)
				centre = rng.Intn(2*band+1) - band
			case 3: // a few bases
				subject = randomSeq(rng, 1+rng.Intn(4))
				centre = rng.Intn(9) - 4
			}
			w, wc := windowOf(subject, centre, band, len(q))
			c.windows, c.centres = append(c.windows, w), append(c.centres, wc)
		}
		d.check(c)
	}

	// Whole subjects, not windows, with centres whose band misses the
	// subject in its first or last rows or in all of them: rows clipped
	// away, empty rows and empty subjects.
	for trial := 0; trial < 4*trials; trial++ {
		q := randCodes(rng, 1+rng.Intn(120))
		band := rng.Intn(30)
		c := laneCase{name: fmt.Sprintf("missed rows, trial %d", trial), a: q, band: band, scorings: stripedScorings}
		for l := 0; l < 1+rng.Intn(16); l++ {
			subject := mutate(rng, q, 0.2)
			if l%5 == 4 {
				subject = randCodes(rng, rng.Intn(3))
			}
			centre := rng.Intn(len(q)+len(subject)+4*band+20) - len(q) - 2*band - 10
			c.windows, c.centres = append(c.windows, subject), append(c.centres, centre)
		}
		d.check(c)
	}

	// Ties: TestBandedPassTies' equal best in a later row, and its best
	// repeated in a later block of a row, both rows of 25 cells, in
	// every lane beside lanes that end elsewhere.
	const A, C, G, T = dna.BaseA, dna.BaseC, dna.BaseG, dna.BaseT
	acgt := []byte{A, C, G, T}
	gs := func(n int) []byte { return bytes.Repeat([]byte{G}, n) }
	later := slices.Concat(acgt, []byte{C, C, C, C}, acgt)
	for _, c := range []laneCase{
		{name: "equal best in a later row", a: later, band: 12,
			windows: [][]byte{acgt, acgt, later, acgt, randomSeq(rng, 30), acgt},
			centres: []int{0, 0, 0, 0, 5, 0}},
		{name: "best repeated in a later block", a: acgt, band: 12,
			windows: [][]byte{slices.Concat(gs(10), acgt, gs(4), acgt), acgt, slices.Concat(gs(10), acgt, gs(4), acgt), slices.Concat(gs(2), acgt, gs(2), acgt), slices.Concat(gs(10), acgt, gs(4), acgt)},
			centres: []int{10, 0, 10, 2, 10}},
		{name: "repeated row maximum", a: slices.Concat(acgt, acgt, acgt, acgt), band: 24,
			windows: [][]byte{slices.Concat(acgt, gs(8), acgt, acgt, gs(8), acgt, acgt, acgt, acgt), bytes.Repeat(acgt, 12), bytes.Repeat(acgt, 12), bytes.Repeat(acgt, 3), bytes.Repeat(acgt, 12)},
			centres: []int{0, 0, 8, 4, 16}},
	} {
		c.scorings = stripedScorings
		d.check(c)
	}

	// Wildcards, junk and Masked bytes in the subjects, junk codes in
	// the query.
	junk := []byte{0, 1, 2, 3, 4, 9, 14, 15, 16, 0x1f, 0x20, 0x80, 0x8f, 0xf0, Masked}
	for trial := 0; trial < 2*trials; trial++ {
		q := randCodes(rng, 10+rng.Intn(100))
		q[0], q[len(q)-1] = 0x8f, Masked
		band := 24
		c := laneCase{name: fmt.Sprintf("junk, trial %d", trial), a: q, band: band, scorings: stripedScorings}
		for l := 0; l < 16; l++ {
			subject := mutate(rng, q, 0.1)
			for x := range subject {
				if rng.Intn(4) == 0 {
					subject[x] = junk[rng.Intn(len(junk))]
				}
			}
			centre := rng.Intn(2*band+1) - band
			w, wc := windowOf(subject, centre, band, len(q))
			c.windows, c.centres = append(c.windows, w), append(c.centres, wc)
		}
		d.check(c)
	}

	// The int16 capacity's edge (TestNarrowCapacity): a 3 266-base
	// self-match scores 16 330 in int16 lanes, a 3 267-base one does not
	// fit them and is scored lane by lane.
	self := randomSeq(rng, 3267)
	for _, n := range []int{3266, 3267} {
		c := laneCase{name: fmt.Sprintf("%d-base self-match", n), a: self[:n], band: 4, scorings: def}
		for l := 0; l < 5; l++ {
			c.windows, c.centres = append(c.windows, self[:n]), append(c.centres, l-2)
		}
		d.check(c)
		sub := NewSubst(DefaultScoring())
		if got := sub.vectorLanes(&avx2Lanes, n, 4); got != (n == 3266) {
			t.Errorf("%d-base query: vectorLanes = %v, want %v", n, got, n == 3266)
		}
	}
	if _, ok := vectorPass(); ok && d.vector < 50 {
		t.Fatalf("%d batches ran on the vector batch: the fixture no longer reaches it", d.vector)
	}
	t.Logf("%d batches ran on the vector batch and %d lane by lane", d.vector, d.single)
}

// avx2Lanes is a route that has the vector batch, on any CPU, for the
// tests of vectorLanes' choice.
var avx2Lanes = passRoute{name: "lanes", lanes16: func(h, e []int16, cols, a []byte, width int, t *Subst, ends *laneEnds) {}}

package align

import (
	"math/rand"
	"testing"
)

// bruteBandedCells counts (i,j) pairs inside both the matrix and the
// diagonal strip — the definition BandedCells must match.
func bruteBandedCells(la, lb, centre, band int) int64 {
	var cells int64
	for i := 0; i < la; i++ {
		for j := 0; j < lb; j++ {
			if d := j - i; d >= centre-band && d <= centre+band {
				cells++
			}
		}
	}
	return cells
}

func TestBandedCellsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		la, lb := 1+rng.Intn(80), 1+rng.Intn(80)
		centre := rng.Intn(161) - 80
		band := rng.Intn(40)
		got := BandedCells(la, lb, centre, band)
		want := bruteBandedCells(la, lb, centre, band)
		if got != want {
			t.Fatalf("BandedCells(%d,%d,%d,%d) = %d, want %d", la, lb, centre, band, got, want)
		}
	}
}

// TestBandedCellsMatchesKernelWrites pins BandedCells to the cells the
// traceback kernel actually computes: the direction matrix is poisoned
// with a byte no cell can hold, and after the pass exactly BandedCells
// slots have been overwritten — for the whole query and for the query
// cut at the alignment's end row, which is what the searcher bills.
func TestBandedCellsMatchesKernelWrites(t *testing.T) {
	const poison = 0xFF
	rng := rand.New(rand.NewSource(4))
	sub := NewSubst(DefaultScoring())
	var sc BandedScratch
	for trial := 0; trial < 300; trial++ {
		a, b := randomSeq(rng, 1+rng.Intn(80)), randomSeq(rng, 1+rng.Intn(80))
		band := rng.Intn(20)
		centre := rng.Intn(len(a)+len(b)+2*band) - len(a) - band
		_, aEnd, _ := sub.BandedLocalScore(a, b, centre, band, &sc)
		for _, q := range [][]byte{a, a[:aEnd]} {
			sc.dir = make([]byte, len(q)*(2*band+1))
			for i := range sc.dir {
				sc.dir[i] = poison
			}
			sub.BandedLocal(q, b, centre, band, &sc)
			var written int64
			for _, d := range sc.dir {
				if d != poison {
					written++
				}
			}
			if want := BandedCells(len(q), len(b), centre, band); written != want {
				t.Fatalf("trial %d: kernel wrote %d cells, BandedCells(%d,%d,%d,%d) = %d",
					trial, written, len(q), len(b), centre, band, want)
			}
		}
	}
}

// TestTraceCellsMatchesKernelWrites does the same for the strip
// LocalEndingAt traces, handed the end cell and handed the end column:
// exactly TraceCells direction bytes are written, so what the searcher
// bills for an exact traceback is what the kernel computed.
func TestTraceCellsMatchesKernelWrites(t *testing.T) {
	const poison = 0xFF
	rng := rand.New(rand.NewSource(5))
	sub := NewSubst(DefaultScoring())
	var sc BandedScratch
	for trial := 0; trial < 300; trial++ {
		b := randomSeq(rng, 20+rng.Intn(200))
		a := mutate(rng, b[rng.Intn(10):10+rng.Intn(len(b)-9)], 0.1)
		score, aEnd, bEnd := sub.LocalScore(a, b, &sc)
		if score == 0 {
			continue
		}
		for _, row := range []int{aEnd, 0} {
			rows, _, band, _ := sub.traceStrip(len(a), score, row, bEnd)
			sc.dir = make([]byte, rows*(2*band+1))
			for i := range sc.dir {
				sc.dir[i] = poison
			}
			sub.LocalEndingAt(a, b, score, row, bEnd, &sc)
			var written int64
			for _, d := range sc.dir {
				if d != poison {
					written++
				}
			}
			if want := sub.TraceCells(len(a), score, row, bEnd); written != want || want == 0 {
				t.Fatalf("trial %d: kernel wrote %d cells, TraceCells(%d,%d,%d,%d) = %d",
					trial, written, len(a), score, row, bEnd, want)
			}
		}
	}
}

func TestCellsEdgeCases(t *testing.T) {
	if got := LocalCells(0, 10); got != 0 {
		t.Fatalf("LocalCells(0,10) = %d", got)
	}
	if got := LocalCells(300, 500); got != 150000 {
		t.Fatalf("LocalCells(300,500) = %d", got)
	}
	if got := BandedCells(10, 10, 0, -1); got != 0 {
		t.Fatalf("negative band: %d cells", got)
	}
	// Band wider than the matrix degenerates to the full matrix.
	if got := BandedCells(20, 30, 0, 100); got != LocalCells(20, 30) {
		t.Fatalf("wide band = %d, want full matrix %d", got, LocalCells(20, 30))
	}
	// Band entirely off the matrix touches nothing.
	if got := BandedCells(10, 10, 1000, 5); got != 0 {
		t.Fatalf("off-matrix band: %d cells", got)
	}
}

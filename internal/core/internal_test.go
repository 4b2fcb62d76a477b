package core

import (
	"reflect"
	"testing"

	"nucleodb/internal/postings"
)

// TestAccumulators: the packed word counts distinct intervals in its
// low half and total occurrences in its high half, a one-offset posting
// adding 1 to each and a postings.Multi one 1 and its side count, with
// the ids rebased to the segment; reset clears every touched word.
func TestAccumulators(t *testing.T) {
	const base = 100
	acc := newAccumulators(10)
	acc.add([]uint32{base + 3, base + 7 | postings.Multi, base + 9}, []uint32{4}, base)
	acc.add([]uint32{base + 3 | postings.Multi, base + 7}, []uint32{5}, base)
	for _, c := range []struct {
		id, distinct int
		total        uint32
	}{{3, 2, 6}, {7, 2, 5}, {9, 1, 1}, {0, 0, 0}} {
		if d, tot := acc.distinct(c.id), acc.total(c.id); d != c.distinct || tot != c.total {
			t.Errorf("seq %d counters = %d/%d, want %d/%d", c.id, d, tot, c.distinct, c.total)
		}
	}
	if acc.w[3] != 2|6<<32 {
		t.Errorf("seq 3 word = %#x, want distinct 2 low and total 6 high", acc.w[3])
	}
	if !reflect.DeepEqual(acc.touched, []int{3, 7, 9}) {
		t.Errorf("touched = %v", acc.touched)
	}
	// A count of 2³¹, the largest a list holds, lands in the high half
	// without disturbing the low one.
	acc.add([]uint32{base + 1 | postings.Multi}, []uint32{1 << 31}, base)
	if acc.distinct(1) != 1 || acc.total(1) != 1<<31 {
		t.Errorf("seq 1 counters = %d/%d, want 1/2³¹", acc.distinct(1), acc.total(1))
	}
	acc.reset()
	for id := range acc.w {
		if acc.w[id] != 0 {
			t.Errorf("reset left residue in seq %d: %#x", id, acc.w[id])
		}
	}
	if len(acc.touched) != 0 {
		t.Error("touched not cleared")
	}
	// Reuse after reset.
	acc.add([]uint32{base + 3}, nil, base)
	if acc.distinct(3) != 1 || acc.total(3) != 1 || len(acc.touched) != 1 {
		t.Error("reuse after reset broken")
	}
}

func TestDiagAccBands(t *testing.T) {
	d := newDiagAcc(true)
	// Sequence 5: a dense band around diagonal 100 (bucket boundary
	// spanning), sequence 9: one lone hit.
	for _, diag := range []int{96, 100, 104, 108, 112} {
		d.add(5, diag)
	}
	d.add(9, -50)
	best := d.finalize()
	r5 := best[5]
	if r5.score != 5 {
		t.Errorf("seq 5 band score = %d, want 5", r5.score)
	}
	// The winning band must sit near diagonal 100.
	if r5.diag < 80 || r5.diag > 140 {
		t.Errorf("seq 5 band centre = %d, want near 100", r5.diag)
	}
	r9 := best[9]
	if r9.score != 1 {
		t.Errorf("seq 9 band score = %d, want 1", r9.score)
	}
	if r9.diag > 0 || r9.diag < -100 {
		t.Errorf("seq 9 band centre = %d, want near -50", r9.diag)
	}
}

func TestDiagAccNegativeDiagonals(t *testing.T) {
	d := newDiagAcc(true)
	for i := 0; i < 4; i++ {
		d.add(1, -1000-i)
	}
	best := d.finalize()
	if best[1].score != 4 {
		t.Errorf("negative-diagonal band score = %d, want 4", best[1].score)
	}
	if got := best[1].diag; got > -960 || got < -1040 {
		t.Errorf("band centre = %d, want near -1000", got)
	}
}

func TestDiagAccDisabled(t *testing.T) {
	if d := newDiagAcc(false); d != nil {
		t.Error("disabled diagAcc not nil")
	}
}

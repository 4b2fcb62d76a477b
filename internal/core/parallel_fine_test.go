package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"nucleodb/internal/index"
)

// TestParallelFineMatchesSerial: the fine phase returns the same
// results — spans, transcripts, strands, coarse scores — and the same
// counters at every worker count, in both fine modes, with and without
// the prescreen and the reverse strand.
func TestParallelFineMatchesSerial(t *testing.T) {
	f := makeFixture(t, 221, index.Options{K: 9})
	s := newTestSearcher(t, f)
	search := func(opts Options) ([]Result, SearchStats) {
		t.Helper()
		var st SearchStats
		rs, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st)
		if err != nil {
			t.Fatal(err)
		}
		st.CoarseTime, st.PrescreenTime, st.FineTime, st.TracebackTime, st.TotalTime = 0, 0, 0, 0, 0
		return rs, st
	}
	for _, mode := range []FineMode{FineFull, FineBanded} {
		for _, strands := range []bool{false, true} {
			for _, prescreen := range []int{0, 100} {
				serial := DefaultOptions()
				serial.FineMode, serial.BothStrands, serial.Prescreen = mode, strands, prescreen
				serial.MinScore, serial.Limit = 0, 0
				want, wantSt := search(serial)
				if prescreen > 0 && (wantSt.PrescreenRejections == 0 || wantSt.FineAlignments == 0) {
					t.Fatalf("%v strands=%v: the prescreen rejected %d of %d candidates: the fixture must keep some and drop some", mode, strands, wantSt.PrescreenRejections, wantSt.CoarseCandidates)
				}
				for _, workers := range []int{1, 2, 8} {
					parallel := serial
					parallel.FineWorkers = workers
					got, gotSt := search(parallel)
					name := fmt.Sprintf("%v strands=%v prescreen=%d workers=%d", mode, strands, prescreen, workers)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: results differ from the serial search's\n got %+v\nwant %+v", name, got, want)
					}
					if gotSt != wantSt {
						t.Fatalf("%s: counters differ from the serial search's\n got %+v\nwant %+v", name, gotSt, wantSt)
					}
				}
			}
		}
	}
}

func TestParallelFineWithPrescreenAndStrands(t *testing.T) {
	f := makeFixture(t, 222, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Prescreen = 100
	opts.BothStrands = true
	opts.FineWorkers = 4
	a, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.FineWorkers = 0
	b, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("parallel %d results, serial %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score || a[i].Reverse != b[i].Reverse {
			t.Fatalf("result %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestFineWorkersValidation(t *testing.T) {
	f := makeFixture(t, 223, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.FineWorkers = -1
	if _, err := s.Search(f.query, opts); err == nil {
		t.Error("negative FineWorkers accepted")
	}
}

package core

import (
	"testing"

	"nucleodb/internal/index"
)

func TestParallelFineMatchesSerial(t *testing.T) {
	f := makeFixture(t, 221, index.Options{K: 9})
	s := newTestSearcher(t, f)

	for _, mode := range []FineMode{FineFull, FineBanded} {
		serial := DefaultOptions()
		serial.FineMode = mode
		serial.MinScore = 0
		serial.Limit = 0
		parallel := serial
		parallel.FineWorkers = 8

		a, err := s.Search(f.query, serial)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.Search(f.query, parallel)
		if err != nil {
			t.Fatal(err)
		}
		if len(a) != len(b) {
			t.Fatalf("%v: serial %d results, parallel %d", mode, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
				t.Fatalf("%v: result %d differs: %+v vs %+v", mode, i, a[i], b[i])
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

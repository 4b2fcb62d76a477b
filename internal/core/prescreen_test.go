package core

import (
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/index"
)

func TestPrescreenKeepsHomologs(t *testing.T) {
	f := makeFixture(t, 161, index.Options{K: 9})
	s := newTestSearcher(t, f)

	opts := DefaultOptions()
	opts.MinScore = 0
	base, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Prescreen = 3 * 9 * align.DefaultScoring().Match
	screened, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(screened) == 0 {
		t.Fatal("prescreen removed everything")
	}
	// The strong answers survive: the top of both rankings agree.
	n := 4
	if len(base) < n || len(screened) < n {
		n = min(len(base), len(screened))
	}
	for i := 0; i < n; i++ {
		if base[i].ID != screened[i].ID {
			t.Errorf("rank %d differs: %d vs %d", i, base[i].ID, screened[i].ID)
		}
	}
	// And the prescreen drops noise-level candidates.
	if len(screened) >= len(base) {
		t.Errorf("prescreen dropped nothing: %d vs %d results", len(screened), len(base))
	}
}

func TestPrescreenValidation(t *testing.T) {
	f := makeFixture(t, 162, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Prescreen = -1
	if _, err := s.Search(f.query, opts); err == nil {
		t.Error("negative prescreen accepted")
	}
}

func TestPrescreenUnreachableThresholdDropsAll(t *testing.T) {
	f := makeFixture(t, 163, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Prescreen = 1 << 30
	rs, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 0 {
		t.Errorf("unreachable prescreen kept %d results", len(rs))
	}
}

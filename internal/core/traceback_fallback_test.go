package core

import (
	"context"
	"errors"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/index"
)

// TestTracebackFallbackOnBandMismatch hands finishTracebacks a record no
// search produces: a ranking score whose band centre misses the real
// alignment, so the banded traceback cannot reproduce it. The score pass
// and the traceback share window and centre, so this is an internal
// error — not the caller's (ErrInvalid), and not papered over with a
// full Smith–Waterman traceback.
func TestTracebackFallbackOnBandMismatch(t *testing.T) {
	f := makeFixture(t, 441, index.DefaultOptions())
	s := newTestSearcher(t, f)
	opts := DefaultOptions()

	// Any family member has a strong alignment to the query; a band
	// centred far away from its true diagonal cannot reach that score.
	id := -1
	for fid := range f.family {
		id = fid
		break
	}
	subject := f.store.Sequence(id)
	centre := len(subject) + 10*opts.Band // off the end: the band misses everything
	bandedScore, _, _ := align.BandedLocalScore(f.query, subject, centre, opts.Band, s.scoring)
	full := align.Local(f.query, subject, s.scoring)
	if full.Score <= bandedScore {
		t.Fatalf("fixture cannot force a mismatch: full score %d, banded score %d", full.Score, bandedScore)
	}

	in := []candRec{{
		id:     id,
		score:  full.Score, // ranking score the banded pass can't reproduce
		aEnd:   len(f.query),
		centre: centre,
	}}
	var st SearchStats
	out, err := s.finishTracebacks(context.Background(), f.query, nil, in, opts, &st)
	if err == nil {
		t.Fatalf("a traceback that misses its score returned %+v and no error", out)
	}
	if errors.Is(err, ErrInvalid) {
		t.Fatalf("err = %v: a mismatched traceback is not the caller's fault", err)
	}
	if out != nil {
		t.Errorf("results %+v returned with the error", out)
	}
}

// TestTracebackAgreementKeepsBandedAlignment pins the search's own case:
// the banded traceback reproduces the ranking score and is used as-is.
func TestTracebackAgreementKeepsBandedAlignment(t *testing.T) {
	f := makeFixture(t, 442, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()

	rs, err := s.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	var st SearchStats
	if _, err := s.SearchWithStatsContext(context.Background(), f.query, opts, &st); err != nil {
		t.Fatal(err)
	}
	// Every reported traceback agreed with its ranking score (the band
	// was centred by the search itself), so the billed cells are exactly
	// the banded matrices down to each alignment's end row.
	var banded int64
	for i, r := range rs {
		subject := f.store.Sequence(r.ID)
		banded += align.BandedCells(r.Alignment.AEnd, len(subject), s.recs[i].centre, opts.Band)
		if len(r.Alignment.Ops) == 0 && r.Alignment.Score > 0 {
			t.Errorf("result %d has no transcript", r.ID)
		}
	}
	if st.TracebackDPCells != banded {
		t.Errorf("TracebackDPCells = %d, want %d (the banded matrices)", st.TracebackDPCells, banded)
	}
}

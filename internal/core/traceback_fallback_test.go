package core

import (
	"context"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/index"
)

// TestTracebackFallbackOnBandMismatch forces the failure the fallback
// exists for: a result whose ranking score the banded traceback cannot
// reproduce (here because the recorded band centre misses the real
// alignment). The old behaviour silently kept the score-only stub — a
// degenerate zero-length span with no transcript. The fix must instead
// run a full Smith–Waterman traceback, report its spans and transcript,
// keep the ranking score, and bill the extra cells to TracebackDPCells.
func TestTracebackFallbackOnBandMismatch(t *testing.T) {
	f := makeFixture(t, 441, index.Options{K: 9, StoreOffsets: true})
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

	in := []Result{{
		ID:             id,
		Score:          full.Score, // ranking score the banded pass can't reproduce
		bandCentre:     centre,
		needsTraceback: true,
	}}
	var st SearchStats
	out, err := s.finishTracebacks(context.Background(), f.query, nil, in, opts, &st)
	if err != nil {
		t.Fatal(err)
	}
	r := out[0]
	if r.needsTraceback {
		t.Error("needsTraceback still set after finishTracebacks")
	}
	if r.Score != full.Score {
		t.Errorf("ranking score changed: %d, want %d", r.Score, full.Score)
	}
	if r.Alignment.Score != full.Score {
		t.Errorf("fallback alignment score %d, want full traceback score %d", r.Alignment.Score, full.Score)
	}
	if len(r.Alignment.Ops) == 0 {
		t.Error("fallback alignment has no transcript — the degenerate stub leaked through")
	}
	if r.Alignment.AStart == r.Alignment.AEnd || r.Alignment.BStart == r.Alignment.BEnd {
		t.Errorf("fallback alignment spans are degenerate: q[%d:%d] s[%d:%d]",
			r.Alignment.AStart, r.Alignment.AEnd, r.Alignment.BStart, r.Alignment.BEnd)
	}
	if r.Alignment.AStart != full.AStart || r.Alignment.AEnd != full.AEnd ||
		r.Alignment.BStart != full.BStart || r.Alignment.BEnd != full.BEnd {
		t.Errorf("fallback spans q[%d:%d] s[%d:%d], want full traceback's q[%d:%d] s[%d:%d]",
			r.Alignment.AStart, r.Alignment.AEnd, r.Alignment.BStart, r.Alignment.BEnd,
			full.AStart, full.AEnd, full.BStart, full.BEnd)
	}

	// Cost accounting: the failed banded pass and the full fallback —
	// Local's forward pass over the whole matrix plus the strip it
	// traces — are all billed.
	wantCells := align.BandedCells(len(f.query), len(subject), centre, opts.Band) +
		align.LocalCells(len(f.query), len(subject)) +
		s.subst.TraceCells(len(f.query), full.Score, full.AEnd, full.BEnd)
	if st.TracebackDPCells != wantCells {
		t.Errorf("TracebackDPCells = %d, want %d (banded attempt + full fallback)", st.TracebackDPCells, wantCells)
	}
	if st.TracebackAlignments != 1 {
		t.Errorf("TracebackAlignments = %d, want 1", st.TracebackAlignments)
	}
}

// TestTracebackAgreementKeepsBandedAlignment pins the common case: when
// the banded traceback reproduces the ranking score, it is used as-is
// and no full-matrix fallback runs.
func TestTracebackAgreementKeepsBandedAlignment(t *testing.T) {
	f := makeFixture(t, 442, index.Options{K: 9, StoreOffsets: true})
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
	// the banded matrices down to each alignment's end row — no
	// full-matrix fallback fired.
	var banded int64
	for _, r := range rs {
		subject := f.store.Sequence(r.ID)
		banded += align.BandedCells(r.Alignment.AEnd, len(subject), r.bandCentre, opts.Band)
		if len(r.Alignment.Ops) == 0 && r.Alignment.Score > 0 {
			t.Errorf("result %d has no transcript", r.ID)
		}
	}
	if st.TracebackDPCells != banded {
		t.Errorf("TracebackDPCells = %d, want %d (banded only; fallback should not fire here)",
			st.TracebackDPCells, banded)
	}
}

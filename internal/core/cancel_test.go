package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"nucleodb/internal/index"
)

// countdownCtx cancels itself after a fixed number of Err observations.
// The search pipeline polls only ctx.Err() (never Done), so this gives
// a deterministic mid-pipeline cancellation point: the first check in
// SearchWithStatsContext passes, then a check inside the coarse phase
// observes the cancellation.
type countdownCtx struct {
	context.Context
	remaining atomic.Int64
}

func newCountdownCtx(allow int64) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(allow)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCoarseCancellation cancels mid-coarse and requires ctx.Err() back
// with no partial results, and a searcher that still answers afterwards.
func TestCoarseCancellation(t *testing.T) {
	f := makeFixture(t, 336, index.Options{K: 9})
	s := newTestSearcher(t, f)
	opts := DefaultOptions()

	// Allow exactly the entry check in SearchWithStatsContext; the next
	// Err poll, before the first posting list, observes the cancellation.
	// The stats show where the search stopped: a phase run under a
	// context of its own would read lists (and align candidates) first,
	// and fail only at the next check of this one.
	var st SearchStats
	rs, err := s.SearchWithStatsContext(newCountdownCtx(1), f.query, opts, &st)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if rs != nil {
		t.Errorf("cancelled search returned %d partial results", len(rs))
	}
	if st.PostingLists != 0 || st.FineAlignments != 0 {
		t.Errorf("cancelled search read %d posting lists and aligned %d candidates, want none", st.PostingLists, st.FineAlignments)
	}
	if _, err := s.Search(f.query, opts); err != nil {
		t.Errorf("search after cancellation: %v", err)
	}
}

package core

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"nucleodb/internal/align"
	"nucleodb/internal/db"
	"nucleodb/internal/index"
)

// splitSegments re-indexes the fixture's store as k contiguous segments
// with random boundaries, returning the core segment descriptors.
func splitSegments(t *testing.T, f *fixture, rng *rand.Rand, k int) []Segment {
	t.Helper()
	n := f.store.Len()
	// k-1 distinct random cut points; empty segments are not allowed by
	// construction (each segment gets at least one record).
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+rng.Intn(n-1)] = true
	}
	bounds := []int{0}
	for i := 1; i < n; i++ {
		if cuts[i] {
			bounds = append(bounds, i)
		}
	}
	bounds = append(bounds, n)

	segs := make([]Segment, 0, k)
	for s := 0; s+1 < len(bounds); s++ {
		var sub db.Store
		for i := bounds[s]; i < bounds[s+1]; i++ {
			sub.Add(f.store.Desc(i), f.store.Sequence(i))
		}
		idx, err := index.Build(&sub, f.idx.Options())
		if err != nil {
			t.Fatal(err)
		}
		segs = append(segs, Segment{Index: idx, Base: bounds[s]})
	}
	return segs
}

// TestSegmentedSearchEquivalence is the engine's segmentation
// invariant: a searcher over any segmentation of the collection
// returns results byte-identical to the monolithic searcher, for every
// coarse mode, both fine modes — FineFull through the striped route and
// through the scalar pass alone (the test-only scalarFine) — segment
// count 1 through 8 with random boundaries.
func TestSegmentedSearchEquivalence(t *testing.T) {
	f := makeFixture(t, 77, index.Options{K: 9})
	mono := newTestSearcher(t, f)
	rng := rand.New(rand.NewSource(78))

	type fineCfg struct {
		mode   FineMode
		scalar bool
	}
	fines := []fineCfg{
		{FineBanded, false},
		{FineFull, false},
		{FineFull, true},
	}
	modes := []CoarseMode{CoarseDistinct, CoarseTotal, CoarseNormalised, CoarseDiagonal}

	for k := 1; k <= 8; k++ {
		segs := splitSegments(t, f, rng, k)
		seg, err := NewSegmentedSearcher(segs, f.store, align.DefaultScoring(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if seg.NumSegments() != k {
			t.Fatalf("NumSegments = %d, want %d", seg.NumSegments(), k)
		}
		for _, cm := range modes {
			// Coarse takes no SearchStats and counts into the searcher's
			// own; its full-sort ranking merges across segments too.
			wantC, err := mono.Coarse(f.query, cm, 2)
			if err != nil {
				t.Fatalf("k=%d mode=%v: mono Coarse: %v", k, cm, err)
			}
			gotC, err := seg.Coarse(f.query, cm, 2)
			if err != nil {
				t.Fatalf("k=%d mode=%v: segmented Coarse: %v", k, cm, err)
			}
			if len(wantC) == 0 || !reflect.DeepEqual(gotC, wantC) {
				t.Fatalf("k=%d mode=%v: Coarse ranks %d candidates, monolithic %d; lists differ", k, cm, len(gotC), len(wantC))
			}
			for _, fc := range fines {
				opts := DefaultOptions()
				opts.CoarseMode = cm
				opts.FineMode = fc.mode
				mono.scalarFine, seg.scalarFine = fc.scalar, fc.scalar
				opts.BothStrands = cm == CoarseDiagonal // exercise the strand loop too
				name := fmt.Sprintf("k=%d mode=%v fine=%v scalar=%v", k, cm, fc.mode, fc.scalar)

				var wantSt, gotSt SearchStats
				want, err := mono.SearchWithStatsContext(context.Background(), f.query, opts, &wantSt)
				if err != nil {
					t.Fatalf("%s: mono: %v", name, err)
				}
				got, err := seg.SearchWithStatsContext(context.Background(), f.query, opts, &gotSt)
				if err != nil {
					t.Fatalf("%s: segmented: %v", name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: segmented results diverge\n got %+v\nwant %+v", name, got, want)
				}
				// Postings decoded are partitioned, never duplicated
				// or dropped, across segments.
				if gotSt.PostingsDecoded != wantSt.PostingsDecoded {
					t.Errorf("%s: PostingsDecoded %d != %d", name, gotSt.PostingsDecoded, wantSt.PostingsDecoded)
				}
				strands := 1
				if opts.BothStrands {
					strands = 2
				}
				if gotSt.Segments != k*strands {
					t.Errorf("%s: stats Segments = %d, want %d", name, gotSt.Segments, k*strands)
				}
			}
		}
	}
}

// TestSegmentedDeletedFilter checks the tombstone filter: a deleted
// record vanishes from results, everything else is unchanged relative
// to a searcher without the filter.
func TestSegmentedDeletedFilter(t *testing.T) {
	f := makeFixture(t, 79, index.Options{K: 9})
	plain := newTestSearcher(t, f)
	opts := DefaultOptions()
	opts.Limit = 0
	base, err := plain.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(base) < 2 {
		t.Skip("fixture produced too few results")
	}
	dead := base[0].ID

	seg := Segment{Index: f.idx, Deleted: func(local int) bool { return local == dead }}
	filtered, err := NewSegmentedSearcher([]Segment{seg}, f.store, align.DefaultScoring(), nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := filtered.Search(f.query, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := base[:0:0]
	for _, r := range base {
		if r.ID != dead {
			want = append(want, r)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("tombstone filter broke results\n got %+v\nwant %+v", got, want)
	}
}

func TestNewSegmentedSearcherValidates(t *testing.T) {
	f := makeFixture(t, 80, index.Options{K: 9})
	if _, err := NewSegmentedSearcher(nil, f.store, align.DefaultScoring(), nil); err == nil {
		t.Error("empty segment list accepted")
	}
	// Gap in the global id space.
	if _, err := NewSegmentedSearcher([]Segment{{Index: f.idx, Base: 1}}, f.store, align.DefaultScoring(), nil); err == nil {
		t.Error("non-contiguous base accepted")
	}
	// Sequence count mismatch with the source.
	var empty db.Store
	if _, err := NewSegmentedSearcher([]Segment{{Index: f.idx}}, &empty, align.DefaultScoring(), nil); err == nil {
		t.Error("source length mismatch accepted")
	}
	// Differing build options across segments.
	other, err := index.Build(f.store, index.Options{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	segs := []Segment{{Index: f.idx}, {Index: other, Base: f.store.Len()}}
	var double db.Store
	for i := 0; i < f.store.Len(); i++ {
		double.Add(f.store.Desc(i), f.store.Sequence(i))
	}
	for i := 0; i < f.store.Len(); i++ {
		double.Add(f.store.Desc(i), f.store.Sequence(i))
	}
	if _, err := NewSegmentedSearcher(segs, &double, align.DefaultScoring(), nil); err == nil {
		t.Error("mixed build options accepted")
	}
}

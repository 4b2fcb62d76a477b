package nucleodb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"nucleodb/internal/core"
	"nucleodb/internal/dna"
	"nucleodb/internal/segment"
)

// snapshotView is what a reader sees through one loaded snapshot: each
// segment's tombstones and live bases, every record's deleted bit, and
// the answers a searcher built over the snapshot gives across the
// search-option grid.
type snapshotView struct {
	DeletedList [][]int
	NumDeleted  []int
	LiveBases   []int
	Deleted     []bool
	Results     map[string][]Result
}

func viewSnapshot(t *testing.T, d *Database, set *segment.Set, searcher *core.Searcher, codes []byte) snapshotView {
	t.Helper()
	var v snapshotView
	for _, g := range set.Segments() {
		v.DeletedList = append(v.DeletedList, g.DeletedList())
		v.NumDeleted = append(v.NumDeleted, g.NumDeleted())
		v.LiveBases = append(v.LiveBases, g.LiveBases())
	}
	for id := 0; id < set.NumSeqs(); id++ {
		v.Deleted = append(v.Deleted, set.Deleted(id))
	}
	v.Results = map[string][]Result{}
	for name, opts := range searchGrid() {
		rs, _, err := d.searchOn(context.Background(), searcher, set, codes, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		v.Results[name] = rs
	}
	return v
}

// TestSnapshotIsolation is the snapshot-swap contract: a writer builds
// a replacement set and publishes it, and never writes through the set
// it loaded. So a snapshot loaded before Append, Delete or Compact
// reads the same afterwards — the same segment pointers, tombstones and
// deleted bits, and the same answers from a searcher built over it
// before the write. The second Delete lands in segments that already
// hold tombstones, where a copy that shared the published bitmap would
// show through.
func TestSnapshotIsolation(t *testing.T) {
	recs, query, _ := testRecords(360)
	codes, err := dna.Encode([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Build(recs[:25], DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.SetMaxSegments(math.MaxInt32)
	if err := d.Append(recs[25:]); err != nil {
		t.Fatal(err)
	}
	writes := []struct {
		name  string
		write func() error
	}{
		{"append", func() error { return d.Append(recs[:3]) }},
		{"delete", func() error { return d.Delete(1, 30) }},
		{"delete again", func() error { return d.Delete(0, 2, 31) }},
		{"compact", func() error {
			d.SetMaxSegments(1)
			n, err := d.Compact()
			if err == nil && n == 0 {
				t.Fatal("compact folded nothing")
			}
			return err
		}},
	}
	for _, w := range writes {
		set := d.snap.Load()
		searcher, err := d.searcherFor(set)
		if err != nil {
			t.Fatal(err)
		}
		segs := append([]*segment.Segment(nil), set.Segments()...)
		before := viewSnapshot(t, d, set, searcher, codes)
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if d.snap.Load() == set {
			t.Fatalf("%s published no new snapshot", w.name)
		}
		if got := set.Segments(); len(got) != len(segs) {
			t.Fatalf("%s: the loaded snapshot went from %d segments to %d", w.name, len(segs), len(got))
		}
		for i, g := range set.Segments() {
			if g != segs[i] {
				t.Errorf("%s: the loaded snapshot's segment %d was replaced", w.name, i)
			}
		}
		after := viewSnapshot(t, d, set, searcher, codes)
		if !reflect.DeepEqual(after, before) {
			t.Errorf("%s changed the snapshot loaded before it:\nbefore %+v\nafter  %+v", w.name, before, after)
		}
	}
}

// TestCompactSwapsAgainstCurrentSnapshot is the other half of the
// contract: Compact merges outside the writer lock, so it must swap
// against the snapshot current at the swap, not the one it merged from.
// A write lands mid-merge, from the fault hook that fires once the
// merged segment's files are written: an Append must survive the swap,
// and a Delete inside the merged run must make Compact give up rather
// than resurrect the record.
func TestCompactSwapsAgainstCurrentSnapshot(t *testing.T) {
	recs, _, _ := testRecords(370)
	t.Cleanup(func() { segment.FaultHook = nil })
	for _, tc := range []struct {
		name  string
		write func(d *Database, run []*segment.Segment) error
		check func(d *Database, folded int, run []*segment.Segment) error
	}{
		{"append", func(d *Database, _ []*segment.Segment) error {
			return d.Append(recs[:2])
		}, func(d *Database, folded int, _ []*segment.Segment) error {
			if folded == 0 {
				return fmt.Errorf("Compact folded nothing")
			}
			if got, want := d.NumSequences(), len(recs)+2; got != want {
				return fmt.Errorf("%d records after the swap, want %d", got, want)
			}
			return nil
		}},
		{"delete in run", func(d *Database, run []*segment.Segment) error {
			return d.Delete(run[0].Base)
		}, func(d *Database, folded int, run []*segment.Segment) error {
			if folded != 0 {
				return fmt.Errorf("Compact folded %d segments over a concurrent Delete", folded)
			}
			if !d.IsDeleted(run[0].Base) {
				return fmt.Errorf("record %d resurrected by the swap", run[0].Base)
			}
			return nil
		}},
	} {
		dir := t.TempDir()
		d, err := Build(recs[:20], DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SaveSegmented(dir); err != nil {
			t.Fatal(err)
		}
		d.SetMaxSegments(math.MaxInt32)
		for _, b := range [][]Record{recs[20:30], recs[30:]} {
			if err := d.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		d.SetMaxSegments(1)
		segs := d.snap.Load().Segments()
		lo, hi := segment.PickRun(segs, 1)
		if lo < 0 {
			t.Fatalf("%s: no run to fold", tc.name)
		}
		run := segs[lo:hi]
		armed := true
		segment.FaultHook = func(point string) error {
			if point != segment.FaultSegmentsWritten || !armed {
				return nil
			}
			armed = false
			return tc.write(d, run)
		}
		folded, err := d.Compact()
		segment.FaultHook = nil
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := tc.check(d, folded, run); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

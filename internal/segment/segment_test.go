package segment

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
)

func testStore(t *testing.T, rng *rand.Rand, n int) *db.Store {
	t.Helper()
	letters := []byte("ACGT")
	var store db.Store
	for i := 0; i < n; i++ {
		seq := make([]byte, 60+rng.Intn(120))
		for j := range seq {
			seq[j] = letters[rng.Intn(4)]
		}
		codes, err := dna.Encode(seq)
		if err != nil {
			t.Fatal(err)
		}
		store.Add("rec", codes)
	}
	return &store
}

func buildSegment(t *testing.T, rng *rand.Rand, name string, n, base int, opts index.Options) *Segment {
	t.Helper()
	store := testStore(t, rng, n)
	idx, err := index.Build(store, opts)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(name, store, idx, base)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testOpts() index.Options {
	return index.Options{K: 8}
}

func TestNewValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	store := testStore(t, rng, 3)
	idx, err := index.Build(store, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New("g", store, idx, -1); err == nil {
		t.Error("negative base accepted")
	}
	var other db.Store
	if _, err := New("g", &other, idx, 0); err == nil {
		t.Error("store/index length mismatch accepted")
	}
}

func TestWithDeleted(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := buildSegment(t, rng, "g", 10, 0, testOpts())
	liveBefore := g.LiveBases()

	d1, err := g.WithDeleted([]int{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumDeleted() != 0 || g.DeletedLocal(3) {
		t.Error("WithDeleted mutated the receiver")
	}
	if d1.NumDeleted() != 2 || !d1.DeletedLocal(3) || !d1.DeletedLocal(7) || d1.DeletedLocal(4) {
		t.Errorf("tombstones wrong: %v", d1.DeletedList())
	}
	if want := liveBefore - g.Store.SeqLen(3) - g.Store.SeqLen(7); d1.LiveBases() != want {
		t.Errorf("LiveBases = %d, want %d", d1.LiveBases(), want)
	}

	// Deleting an already-deleted id is a no-op that shares the value.
	d2, err := d1.WithDeleted([]int{7})
	if err != nil {
		t.Fatal(err)
	}
	if d2 != d1 {
		t.Error("all-duplicate delete should return the receiver")
	}
	// Incremental delete accumulates.
	d3, err := d1.WithDeleted([]int{7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d3.DeletedList(), []int{0, 3, 7}) {
		t.Errorf("DeletedList = %v", d3.DeletedList())
	}
	if _, err := d1.WithDeleted([]int{10}); err == nil {
		t.Error("out-of-range local id accepted")
	}
}

func TestNewSetValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := buildSegment(t, rng, "a", 4, 0, testOpts())
	b := buildSegment(t, rng, "b", 6, 4, testOpts())
	set, err := NewSet([]*Segment{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if set.NumSeqs() != 10 || set.Len() != 2 {
		t.Errorf("NumSeqs=%d Len=%d", set.NumSeqs(), set.Len())
	}
	if set.TotalBases() != a.LiveBases()+b.LiveBases() {
		t.Error("TotalBases mismatch")
	}
	// Global id resolution crosses the segment boundary correctly.
	for id := 0; id < 10; id++ {
		want := a.Store
		local := id
		if id >= 4 {
			want, local = b.Store, id-4
		}
		if got := set.Sequence(id); !reflect.DeepEqual(got, want.Sequence(local)) {
			t.Fatalf("Sequence(%d) wrong", id)
		}
		if set.SeqLen(id) != want.SeqLen(local) {
			t.Fatalf("SeqLen(%d) wrong", id)
		}
	}

	if _, err := NewSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	gap := buildSegment(t, rng, "gap", 3, 5, testOpts())
	if _, err := NewSet([]*Segment{a, gap}); err == nil {
		t.Error("non-contiguous bases accepted")
	}
	diff := buildSegment(t, rng, "diff", 3, 4, index.Options{K: 7})
	if _, err := NewSet([]*Segment{a, diff}); err == nil {
		t.Error("differing build options accepted")
	}
	stop := buildSegment(t, rng, "stop", 3, 4, index.Options{K: 8, StopFraction: 0.1})
	if _, err := NewSet([]*Segment{a, stop}); err == nil {
		t.Error("differing stop fractions accepted")
	}
	// Two masks of equal weight share K but not the terms they index.
	m1 := buildSegment(t, rng, "m1", 4, 0, index.Options{SpacedMask: "1101"})
	m2 := buildSegment(t, rng, "m2", 3, 4, index.Options{SpacedMask: "1011"})
	if _, err := NewSet([]*Segment{m1, m2}); err == nil {
		t.Error("differing spaced masks of equal weight accepted")
	}
}

func TestPickRun(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	mk := func(sizes ...int) []*Segment {
		segs := make([]*Segment, len(sizes))
		base := 0
		for i, n := range sizes {
			segs[i] = buildSegment(t, rng, SegName(i), n, base, testOpts())
			base += n
		}
		return segs
	}

	if lo, hi := PickRun(mk(5, 5), 4); lo != -1 || hi != -1 {
		t.Errorf("under-threshold set picked (%d,%d)", lo, hi)
	}
	// The smallest adjacent pair seeds the run; similar-tier neighbours
	// join it.
	segs := mk(40, 2, 3, 2, 40)
	lo, hi := PickRun(segs, 2)
	if lo != 1 || hi != 4 {
		t.Errorf("PickRun = (%d,%d), want (1,4)", lo, hi)
	}
	// A much larger neighbour stays out of the run.
	segs = mk(40, 1, 1, 40)
	lo, hi = PickRun(segs, 2)
	if lo != 1 || hi != 3 {
		t.Errorf("PickRun = (%d,%d), want (1,3)", lo, hi)
	}
	// Runs are capped at maxRunLen.
	segs = mk(1, 1, 1, 1, 1, 1, 1, 1, 1, 1)
	lo, hi = PickRun(segs, 1)
	if hi-lo > maxRunLen {
		t.Errorf("run of %d exceeds cap %d", hi-lo, maxRunLen)
	}
}

// TestMergeRunEquivalence checks the core compaction invariant: the
// merged segment's store holds exactly the run's records (deleted
// records stubbed: description kept, bases dropped) and its index saves
// byte-identically to index.Build over those records, whatever the
// run's length, tombstones, stop fraction or mask. Stopping is decided
// over the folded run, so a stopped fold equals a fresh stopped build.
func TestMergeRunEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, opts := range []index.Options{
		{K: 8},
		{K: 8, StopFraction: 0.05},
		{SpacedMask: "1101100111"},
		{SpacedMask: "1101100111", StopFraction: 0.05},
	} {
		for _, runLen := range []int{1, 2, 8} {
			for _, deletes := range []string{"none", "some", "all-of-one"} {
				label := fmt.Sprintf("%+v/run%d/%s", opts, runLen, deletes)
				run := make([]*Segment, runLen)
				base := 3 + rng.Intn(5)
				for i := range run {
					g := buildSegment(t, rng, SegName(i), 3+rng.Intn(6), base, opts)
					var del []int
					switch {
					case deletes == "some":
						del = []int{rng.Intn(g.Len())}
					case deletes == "all-of-one" && i == runLen/2:
						for j := 0; j < g.Len(); j++ {
							del = append(del, j)
						}
					}
					if len(del) > 0 {
						var err error
						if g, err = g.WithDeleted(del); err != nil {
							t.Fatal(err)
						}
					}
					run[i] = g
					base += g.Len()
				}
				var want db.Store
				for _, g := range run {
					for j := 0; j < g.Len(); j++ {
						if g.DeletedLocal(j) {
							want.Add(g.Store.Desc(j), nil)
						} else {
							want.Add(g.Store.Desc(j), g.Store.Sequence(j))
						}
					}
				}

				merged, err := MergeRun("m", run)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if merged.Base != run[0].Base || merged.Len() != want.Len() {
					t.Fatalf("%s: merged base=%d len=%d, want %d/%d", label, merged.Base, merged.Len(), run[0].Base, want.Len())
				}
				if merged.NumDeleted() != 0 {
					t.Errorf("%s: tombstones survived compaction", label)
				}
				for i := 0; i < want.Len(); i++ {
					if merged.Store.Desc(i) != want.Desc(i) || !bytes.Equal(merged.Store.Sequence(i), want.Sequence(i)) {
						t.Fatalf("%s: record %d differs from the run's (stubbed) record", label, i)
					}
				}
				fresh, err := index.Build(&want, opts)
				if err != nil {
					t.Fatal(err)
				}
				var got, exp bytes.Buffer
				if err := merged.Index.Save(&got); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Save(&exp); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Bytes(), exp.Bytes()) {
					t.Errorf("%s: merged index (%d stopped) differs from a fresh build (%d stopped)",
						label, merged.Index.NumStopped(), fresh.NumStopped())
				}
			}
		}
	}

	if _, err := MergeRun("x", nil); err == nil {
		t.Error("empty run accepted")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dir := t.TempDir()
	a := buildSegment(t, rng, SegName(0), 6, 0, testOpts())
	b := buildSegment(t, rng, SegName(1), 4, 6, testOpts())
	b, err := b.WithDeleted([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewSet([]*Segment{a, b})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range set.Segments() {
		if err := WriteFiles(dir, g); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteManifest(dir, set, 2); err != nil {
		t.Fatal(err)
	}
	got, nextSeg, err := OpenDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if nextSeg != 2 {
		t.Errorf("nextSeg = %d, want 2", nextSeg)
	}
	if got.NumSeqs() != 10 || got.Len() != 2 || got.NumDeleted() != 1 {
		t.Fatalf("reloaded set: seqs=%d segs=%d deleted=%d", got.NumSeqs(), got.Len(), got.NumDeleted())
	}
	if !got.Deleted(8) {
		t.Error("tombstone lost on reload")
	}
	for id := 0; id < 10; id++ {
		if !reflect.DeepEqual(got.Sequence(id), set.Sequence(id)) {
			t.Fatalf("sequence %d differs after reload", id)
		}
		if got.Desc(id) != set.Desc(id) {
			t.Fatalf("desc %d differs after reload", id)
		}
	}

	// Paged open reads the same data through the disk index.
	paged, _, err := OpenDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, g := range paged.Segments() {
			g.Index.Close()
		}
	}()
	for _, g := range paged.Segments() {
		if !g.Index.Disk() {
			t.Error("paged open produced an in-memory index")
		}
	}
}

func TestOpenDirValidates(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	if _, _, err := OpenDir(dir, false); err == nil {
		t.Error("missing manifest accepted")
	}
	g := buildSegment(t, rng, SegName(0), 3, 0, testOpts())
	set, err := NewSet([]*Segment{g})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFiles(dir, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, set, 1); err != nil {
		t.Fatal(err)
	}
	// Corrupt the record count: open must refuse.
	m, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		t.Fatal(err)
	}
	bad := []byte(string(m))
	bad = []byte(replaceOnce(string(bad), `"seqs": 3`, `"seqs": 4`))
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenDir(dir, false); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

func replaceOnce(s, old, new string) string {
	for i := 0; i+len(old) <= len(s); i++ {
		if s[i:i+len(old)] == old {
			return s[:i] + new + s[i+len(old):]
		}
	}
	return s
}

// TestGC checks that open removes files a crash left unreferenced but
// never touches live segment files or foreign files.
func TestGC(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dir := t.TempDir()
	g := buildSegment(t, rng, SegName(0), 3, 0, testOpts())
	set, err := NewSet([]*Segment{g})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFiles(dir, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, set, 1); err != nil {
		t.Fatal(err)
	}
	// Debris: an orphaned segment pair, a torn temp file, and an
	// unrelated file that must survive.
	for _, name := range []string{"seg-000009.store", "seg-000009.ndx", "seg-000010.store.tmp", "MANIFEST.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, err := OpenDir(dir, false); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"seg-000009.store", "seg-000009.ndx", "seg-000010.store.tmp", "MANIFEST.tmp"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("debris %s survived GC", name)
		}
	}
	for _, name := range []string{"README", SegName(0) + ".store", SegName(0) + ".ndx", ManifestFile} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("GC removed %s: %v", name, err)
		}
	}
}

// TestOpenDirNextSegDefensive checks that a manifest whose next_seg
// lags behind a live segment name never causes name reuse.
func TestOpenDirNextSegDefensive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	g := buildSegment(t, rng, SegName(7), 3, 0, testOpts())
	set, err := NewSet([]*Segment{g})
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFiles(dir, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteManifest(dir, set, 0); err != nil {
		t.Fatal(err)
	}
	_, nextSeg, err := OpenDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if nextSeg != 8 {
		t.Errorf("nextSeg = %d, want 8 (past live seg-000007)", nextSeg)
	}
}

package nucleodb

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// searchGrid is the public-API option matrix the equivalence suite
// compares across: every coarse ranking, both fine phases,
// strand handling and prescreen.
func searchGrid() map[string]SearchOptions {
	grid := map[string]SearchOptions{}
	base := DefaultSearchOptions()
	grid["default"] = base

	for _, mode := range []CoarseMode{CoarseTotal, CoarseNormalised, CoarseDiagonal} {
		ranked := base
		ranked.CoarseMode = mode
		grid[mode.String()] = ranked
	}

	exact := base
	exact.Exact = true
	grid["exact"] = exact

	strands := base
	strands.BothStrands = true
	strands.Prescreen = 60
	grid["strands-prescreen"] = strands

	strandsTotal := base
	strandsTotal.CoarseMode = CoarseTotal
	strandsTotal.BothStrands = true
	grid["strands-total"] = strandsTotal
	return grid
}

// splitRecords cuts recs into k non-empty contiguous batches at random
// boundaries.
func splitRecords(rng *rand.Rand, recs []Record, k int) [][]Record {
	cuts := map[int]bool{}
	for len(cuts) < k-1 {
		cuts[1+rng.Intn(len(recs)-1)] = true
	}
	var out [][]Record
	start := 0
	for i := 1; i < len(recs); i++ {
		if cuts[i] {
			out = append(out, recs[start:i])
			start = i
		}
	}
	return append(out, recs[start:])
}

// buildSegmented builds the same collection as Build(recs) but in k
// append batches, leaving the segments unfolded.
func buildSegmented(t *testing.T, recs []Record, k int, rng *rand.Rand) *Database {
	t.Helper()
	batches := splitRecords(rng, recs, k)
	db, err := Build(batches[0], DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxSegments(math.MaxInt32)
	for _, b := range batches[1:] {
		if err := db.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.NumSegments(); got != k {
		t.Fatalf("built %d segments, want %d", got, k)
	}
	return db
}

func mustEqualResults(t *testing.T, label string, db, mono *Database, query string) {
	t.Helper()
	for name, opts := range searchGrid() {
		want, err := mono.Search(query, opts)
		if err != nil {
			t.Fatalf("%s/%s: mono: %v", label, name, err)
		}
		got, err := db.Search(query, opts)
		if err != nil {
			t.Fatalf("%s/%s: %v", label, name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: results diverge from monolithic build\n got %+v\nwant %+v", label, name, got, want)
		}
	}
}

// TestSegmentedEquivalenceProperty is the tentpole's lockdown: for
// random record streams split into k append batches (k = 1..8), the
// segmented database answers byte-identically to a monolithic build of
// the same records — across the whole search-option grid, at every
// compaction state from fully unfolded to fully folded.
func TestSegmentedEquivalenceProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property matrix skipped in -short mode (covered by the full run and CI's segments-equivalence job)")
	}
	for trial := 0; trial < 2; trial++ {
		recs, query, _ := testRecords(int64(300 + trial))
		mono, err := Build(recs, DefaultBuildConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(400 + trial)))
		for k := 1; k <= 8; k++ {
			db := buildSegmented(t, recs, k, rng)
			mustEqualResults(t, fmt.Sprintf("trial%d/k%d/unfolded", trial, k), db, mono, query)

			// Batch answers match single-query answers segment-for-segment.
			batch, err := db.SearchBatch([]string{query, query[:120]}, DefaultSearchOptions(), 2)
			if err != nil {
				t.Fatal(err)
			}
			single, err := mono.Search(query[:120], DefaultSearchOptions())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(batch[1], single) {
				t.Fatalf("trial%d/k%d: batch diverges", trial, k)
			}

			// Fold one step at a time, re-proving equivalence at every
			// intermediate compaction state.
			db.SetMaxSegments(1)
			for step := 0; ; step++ {
				n, err := db.Compact()
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					break
				}
				mustEqualResults(t, fmt.Sprintf("trial%d/k%d/fold%d", trial, k, step), db, mono, query)
			}
			if got := db.NumSegments(); got != 1 {
				t.Fatalf("full compaction left %d segments", got)
			}
		}
	}
}

// TestSegmentedSaveReloadEquivalence checks persistence out of a
// multi-segment state: SaveSegmented round-trips the segments, opened
// in memory and paged.
func TestSegmentedSaveReloadEquivalence(t *testing.T) {
	recs, query, _ := testRecords(310)
	mono, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(311))
	db := buildSegmented(t, recs, 4, rng)

	segDir := filepath.Join(t.TempDir(), "segdb")
	if err := db.SaveSegmented(segDir); err != nil {
		t.Fatal(err)
	}
	reloaded, err := Open(segDir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if got := reloaded.NumSegments(); got != 4 {
		t.Fatalf("reloaded %d segments, want 4", got)
	}
	mustEqualResults(t, "segmented-reload", reloaded, mono, query)

	paged, err := OpenPaged(segDir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	mustEqualResults(t, "segmented-paged", paged, mono, query)
}

// TestOpenDiscardsOldSignatureFiles: a directory written by an older
// cafe-build -signatures carries a seg-NNNNNN.sig beside every segment.
// Nothing reads them any more; both open paths must answer exactly as
// they do without the files and garbage-collect them.
func TestOpenDiscardsOldSignatureFiles(t *testing.T) {
	recs, query, _ := testRecords(330)
	rng := rand.New(rand.NewSource(331))
	dir := filepath.Join(t.TempDir(), "segdb")
	if err := buildSegmented(t, recs, 3, rng).SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	clean, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}

	for _, open := range []struct {
		name string
		fn   func(string, Scoring) (*Database, error)
	}{{"open", Open}, {"paged", OpenPaged}} {
		stores, err := filepath.Glob(filepath.Join(dir, "seg-*.store"))
		if err != nil || len(stores) != 3 {
			t.Fatalf("%s: found segment stores %v (err %v), want 3", open.name, stores, err)
		}
		for _, store := range stores {
			old := strings.TrimSuffix(store, ".store") + ".sig"
			if err := os.WriteFile(old, []byte("not a signature index"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		db, err := open.fn(dir, DefaultScoring())
		if err != nil {
			t.Fatalf("%s: directory with old .sig files: %v", open.name, err)
		}
		mustEqualResults(t, open.name+"-with-sig", db, clean, query)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if left, _ := filepath.Glob(filepath.Join(dir, "*.sig")); len(left) != 0 {
			t.Fatalf("%s: old signature files survived the open: %v", open.name, left)
		}
	}
}

// TestOpenRefusesGammaOffsetSegment: a database directory one of whose
// segments holds an index in an earlier format (NDBidx1, offset gaps
// gamma-coded; NDBidx2, each posting's id, count and offsets
// interleaved) is refused by Open and OpenPaged with the rebuild
// command, and nothing is half-opened: no file stays open behind the
// refusal, the directory is left as it was, and with the segment's
// index put back the database opens and answers as before.
func TestOpenRefusesGammaOffsetSegment(t *testing.T) {
	recs, query, _ := testRecords(332)
	rng := rand.New(rand.NewSource(333))
	dir := filepath.Join(t.TempDir(), "segdb")
	if err := buildSegmented(t, recs, 3, rng).SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	clean, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	indexes, err := filepath.Glob(filepath.Join(dir, "seg-*.ndx"))
	if err != nil || len(indexes) != 3 {
		t.Fatalf("found segment indexes %v (err %v), want 3", indexes, err)
	}
	last := indexes[len(indexes)-1]
	img, err := os.ReadFile(last)
	if err != nil {
		t.Fatal(err)
	}
	const magic = "NDBidx3\n"
	if !strings.HasPrefix(string(img), magic) {
		t.Fatalf("%s starts %q, want %q", last, img[:len(magic)], magic)
	}
	listing := func() string {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range entries {
			info, err := e.Info()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s %d %v\n", e.Name(), info.Size(), info.ModTime())
		}
		return b.String()
	}
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // nothing to count them with on this platform
		}
		return len(fds)
	}
	for _, oldMagic := range []string{"NDBidx1\n", "NDBidx2\n"} {
		if err := os.WriteFile(last, append([]byte(oldMagic), img[len(magic):]...), 0o644); err != nil {
			t.Fatal(err)
		}
		before := listing()
		for _, open := range []struct {
			name string
			fn   func(string, Scoring) (*Database, error)
		}{{"open", Open}, {"paged", OpenPaged}} {
			fds := openFiles()
			db, err := open.fn(dir, DefaultScoring())
			if db != nil {
				db.Close()
				t.Errorf("%s: returned a database for a directory with an %s segment", open.name, strings.TrimSpace(oldMagic))
			}
			if err == nil || !strings.Contains(err.Error(), "rebuild with cafe-build -in <fasta> -db DIR") {
				t.Errorf("%s: %v, want the rebuild message", open.name, err)
			}
			if after := openFiles(); after != fds {
				t.Errorf("%s: %d files open after the refusal, %d before", open.name, after, fds)
			}
			if after := listing(); after != before {
				t.Errorf("%s: the refusal changed the directory:\n%s\nwas\n%s", open.name, after, before)
			}
		}
	}
	if err := os.WriteFile(last, img, 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatalf("with the segment's index put back: %v", err)
	}
	mustEqualResults(t, "restored", db, clean, query)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactedStoppingMatchesBuild: with index stopping on, a database
// grown by appends and compacted to one segment answers, and stops
// terms, exactly as a fresh Build of the same records. Each segment
// stops its own most frequent terms; compaction rebuilds the folded
// run, so stopping is decided again over the whole collection.
func TestCompactedStoppingMatchesBuild(t *testing.T) {
	recs, query, _ := testRecords(360)
	cfg := DefaultBuildConfig()
	cfg.StopFraction = 0.01
	mono, err := Build(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batches := splitRecords(rand.New(rand.NewSource(361)), recs, 4)
	db, err := Build(batches[0], cfg)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMaxSegments(math.MaxInt32)
	for _, b := range batches[1:] {
		if err := db.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	db.SetMaxSegments(1)
	for {
		n, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if got := db.NumSegments(); got != 1 {
		t.Fatalf("full compaction left %d segments", got)
	}
	if got, want := db.Stats().TermsStopped, mono.Stats().TermsStopped; got != want || want == 0 {
		t.Fatalf("compacted database stops %d terms, a fresh build %d", got, want)
	}
	for i, q := range []string{query, query[:120], recs[len(recs)-1].Sequence[:300]} {
		mustEqualResults(t, fmt.Sprintf("query%d", i), db, mono, q)
	}
}

// TestDeleteEquivalence: tombstoned records vanish immediately and
// survivors score identically to a database where the deleted records
// were empty stubs from the start — before AND after compaction
// physically reclaims them (ids never renumber, significance uses live
// bases).
func TestDeleteEquivalence(t *testing.T) {
	recs, query, family := testRecords(320)
	rng := rand.New(rand.NewSource(321))
	db := buildSegmented(t, recs, 3, rng)

	// Delete one family member (a guaranteed strong hit) and two noise
	// records.
	var dead []int
	for id := range family {
		dead = append(dead, id)
		break
	}
	dead = append(dead, len(recs)-1, len(recs)-7)
	if err := db.Delete(dead...); err != nil {
		t.Fatal(err)
	}
	if db.NumDeleted() != len(dead) {
		t.Fatalf("NumDeleted = %d, want %d", db.NumDeleted(), len(dead))
	}
	for _, id := range dead {
		if !db.IsDeleted(id) {
			t.Fatalf("record %d not tombstoned", id)
		}
	}

	// Reference: same records with the deleted ones as empty stubs.
	stubbed := append([]Record{}, recs...)
	for _, id := range dead {
		stubbed[id].Sequence = ""
	}
	ref, err := Build(stubbed, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if db.TotalBases() != ref.TotalBases() {
		t.Fatalf("live bases %d != stub build %d", db.TotalBases(), ref.TotalBases())
	}
	mustEqualResults(t, "tombstoned", db, ref, query)

	// Compaction reclaims the tombstones without changing any answer.
	db.SetMaxSegments(1)
	for {
		n, err := db.Compact()
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
	}
	if db.NumDeleted() != 0 {
		t.Fatalf("%d tombstones survived full compaction", db.NumDeleted())
	}
	if db.TotalBases() != ref.TotalBases() {
		t.Fatalf("live bases changed across compaction: %d != %d", db.TotalBases(), ref.TotalBases())
	}
	mustEqualResults(t, "compacted", db, ref, query)

	// Deleting everything leaves a searchable empty database.
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete(0); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := db.Delete(-1); err == nil {
		t.Error("negative id accepted")
	}
	if err := db.Delete(db.NumSequences()); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestDeletedRecordUnreadable: a tombstoned record cannot be read or
// aligned against through the facade, and the answer is the same while
// its bases still sit in an unfolded segment as after compaction has
// reclaimed them.
func TestDeletedRecordUnreadable(t *testing.T) {
	recs, query, _ := testRecords(340)
	db := buildSegmented(t, recs, 2, rand.New(rand.NewSource(341)))
	if got := db.NumSegments(); got != 2 {
		t.Fatalf("built %d segments, want 2", got)
	}
	if db.Sequence(0) == "" {
		t.Fatal("record 0 empty before Delete; test premise broken")
	}
	// A result on record 0 from before the Delete.
	hits, err := db.HSPs(query, 0, 1, 1)
	if err != nil || len(hits) != 1 {
		t.Fatalf("HSPs on record 0: %d results, err %v", len(hits), err)
	}
	if _, err := db.Alignment(query, hits[0]); err != nil {
		t.Fatalf("Alignment on live record 0: %v", err)
	}
	if err := db.Delete(0); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got := db.Sequence(0); got != "" {
			t.Errorf("%s: Sequence(0) returned %d bases of a deleted record", when, len(got))
		}
		if _, err := db.Alignment(query, hits[0]); err == nil || !strings.Contains(err.Error(), "record id 0 is deleted") {
			t.Errorf("%s: Alignment on a deleted record: err = %v", when, err)
		}
		if rs, err := db.HSPs(query, 0, 3, 1); err == nil || !strings.Contains(err.Error(), "record id 0 is deleted") {
			t.Errorf("%s: HSPs on a deleted record: %d results, err = %v", when, len(rs), err)
		}
		if db.Sequence(1) == "" {
			t.Errorf("%s: live record 1 unreadable", when)
		}
	}
	check("tombstoned")
	db.SetMaxSegments(1)
	if n, err := db.Compact(); err != nil || n != 2 {
		t.Fatalf("Compact folded %d segments, err %v", n, err)
	}
	if db.NumDeleted() != 0 {
		t.Fatalf("%d tombstones survived compaction", db.NumDeleted())
	}
	check("reclaimed")
}

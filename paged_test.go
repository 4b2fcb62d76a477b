package nucleodb

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nucleodb/internal/dna"
)

func TestOpenPagedMatchesInMemory(t *testing.T) {
	recs, query, _ := testRecords(91)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}

	mem, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	a, err := mem.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := paged.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("paged and in-memory searches differ:\n%+v\n%+v", a, b)
	}

	// Batch search works against the paged index too.
	batch, err := paged.SearchBatch([]string{query, query[:150]}, DefaultSearchOptions(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batch[0], a) {
		t.Error("paged batch search differs from sequential")
	}
}

// TestPagedReadErrorIsNotTheClients drives a failed paged read (a
// search after Close) through the whole stack: the error must name the
// read, not a corrupt list, and must not be ErrInvalid, so cafe-serve
// answers it 500 and counts it, never 400.
func TestPagedReadErrorIsNotTheClients(t *testing.T) {
	recs, query, _ := testRecords(93)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if err := paged.Close(); err != nil {
		t.Fatal(err)
	}
	_, err = paged.Search(query, DefaultSearchOptions())
	if err == nil || !strings.Contains(err.Error(), "read after Close") || strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("Search after Close: %v, want the read after Close, not a corrupt list", err)
	}
	if !errors.Is(err, os.ErrClosed) {
		t.Errorf("%v does not wrap os.ErrClosed", err)
	}
	if errors.Is(err, ErrInvalid) {
		t.Errorf("%v is ErrInvalid: a failed read would be answered 400", err)
	}
}

func TestOpenPagedRejectsMonolithicSave(t *testing.T) {
	recs, _, _ := testRecords(92)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	// An unmodified paged database is one disk-backed segment with no
	// in-memory postings to rewrite; SaveSegmented must refuse rather
	// than publish a torn copy.
	target := filepath.Join(t.TempDir(), "copy")
	if err := paged.SaveSegmented(target); err == nil {
		t.Error("SaveSegmented on unmodified paged database accepted")
	}
	if _, err := os.Stat(filepath.Join(target, "MANIFEST")); !os.IsNotExist(err) {
		t.Errorf("refused save left a MANIFEST in the target (stat err = %v)", err)
	}
}

// TestPagedAppend pins the fix for Append on paged databases: the
// disk-backed index becomes a read-only base segment and the batch is
// indexed as a fresh in-memory segment on top, so incremental growth
// works in paged mode and new records are searchable immediately.
func TestPagedAppend(t *testing.T) {
	recs, query, _ := testRecords(92)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	extra := Record{Desc: "appended exact match", Sequence: query}
	if err := paged.Append([]Record{extra}); err != nil {
		t.Fatalf("Append on paged database: %v", err)
	}
	if got, want := paged.NumSequences(), len(recs)+1; got != want {
		t.Fatalf("NumSequences = %d, want %d", got, want)
	}
	if got := paged.NumSegments(); got != 2 {
		t.Fatalf("NumSegments = %d, want 2", got)
	}
	rs, err := paged.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rs {
		if r.ID == len(recs) && r.Desc == extra.Desc {
			found = true
		}
	}
	if !found {
		t.Fatalf("appended record missing from results: %+v", rs)
	}

	// The grown database matches an in-memory build of the same records.
	mem, err := Build(append(append([]Record{}, recs...), extra), DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs, want) {
		t.Errorf("paged append results diverge from monolithic build:\n%+v\n%+v", rs, want)
	}
}

func TestOpenPagedFeatureCombos(t *testing.T) {
	recs, query, _ := testRecords(93)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	// Both strands + prescreen on a paged index.
	opts := DefaultSearchOptions()
	opts.BothStrands = true
	opts.Prescreen = 100
	rs, err := paged.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	// HSPs and Alignment work against the paged store too.
	if _, err := paged.HSPs(query, rs[0].ID, 3, 1); err != nil {
		t.Fatal(err)
	}
	text, err := paged.Alignment(query, rs[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Error("empty alignment text")
	}
}

func TestOpenPagedMissing(t *testing.T) {
	if _, err := OpenPaged(filepath.Join(t.TempDir(), "nope"), DefaultScoring()); err == nil {
		t.Error("missing directory accepted")
	}
}

// TestPagedSearchAllocs: a warm search against a paged index allocates
// what the same search allocates in memory plus a constant — the posting
// lists it reads from disk land in the searcher's iterator buffer, one
// buffer for every list, not a fresh slice per list per query (the
// query below reads about 240 lists). Each database's measurement runs
// the facade's search on one searcher checked out for all of it: under
// the race detector sync.Pool drops pooled searchers at random, and a
// rebuilt searcher's allocations would land in either count.
func TestPagedSearchAllocs(t *testing.T) {
	recs, query, _ := testRecords(95)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	mem, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()

	codes, err := dna.Encode([]byte(query))
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(db *Database) float64 {
		searcher, set, err := db.getSearcher()
		if err != nil {
			t.Fatal(err)
		}
		defer db.putSearcher(searcher)
		search := func() {
			if _, _, err := db.searchOn(context.Background(), searcher, set, codes, DefaultSearchOptions()); err != nil {
				t.Fatal(err)
			}
		}
		search() // warm: scratch at its high-water mark
		return testing.AllocsPerRun(20, search)
	}
	_, st, err := paged.SearchWithStats(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	inMemory, onDisk := allocs(mem), allocs(paged)
	t.Logf("%d posting lists read: %.0f allocations in memory, %.0f paged", st.PostingLists, inMemory, onDisk)
	if st.PostingLists < 100 {
		t.Fatalf("the query reads only %d lists; the bound below would not notice a per-list allocation", st.PostingLists)
	}
	if onDisk > inMemory+8 {
		t.Errorf("paged search allocates %.0f objects against %.0f in memory: more than a constant apart", onDisk, inMemory)
	}
}

// TestPagedShortReadIsNotTheClients truncates a live paged database's
// index to half its size after OpenPaged: the search must fail with the
// short read (io.EOF) of a list past the cut, not with a corrupt list
// and not with ErrInvalid.
func TestPagedShortReadIsNotTheClients(t *testing.T) {
	recs, query, _ := testRecords(94)
	built, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := built.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	truncateIndexes(t, dir)
	_, err = paged.Search(query, DefaultSearchOptions())
	if !errors.Is(err, io.EOF) || strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want the short read (io.EOF), not a corrupt list", err)
	}
	if errors.Is(err, ErrInvalid) {
		t.Fatalf("a short paged read matches ErrInvalid: %v", err)
	}
}

// truncateIndexes cuts every segment index under dir to half its size.
func truncateIndexes(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.ndx"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no index files under %s: %v", dir, err)
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
}

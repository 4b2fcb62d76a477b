package nucleodb

import (
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nucleodb/internal/core"
	"nucleodb/internal/db"
	"nucleodb/internal/dna"
	"nucleodb/internal/index"
)

// letters draws a random sequence of IUPAC base letters.
func letters(rng *rand.Rand, n int) string {
	const bases = "ACGT"
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(bases[rng.Intn(4)])
	}
	return b.String()
}

// mutateLetters applies point substitutions at the given rate.
func mutateLetters(rng *rand.Rand, s string, rate float64) string {
	const bases = "ACGT"
	out := []byte(s)
	for i := range out {
		if rng.Float64() < rate {
			out[i] = bases[rng.Intn(4)]
		}
	}
	return string(out)
}

// testRecords builds a collection with one family of near-copies of a
// root plus random noise. Returns records, a query, and family ids.
func testRecords(seed int64) ([]Record, string, map[int]bool) {
	rng := rand.New(rand.NewSource(seed))
	root := letters(rng, 700)
	var recs []Record
	family := map[int]bool{}
	for i := 0; i < 5; i++ {
		family[len(recs)] = true
		recs = append(recs, Record{Desc: "fam", Sequence: mutateLetters(rng, root, 0.05)})
	}
	for i := 0; i < 40; i++ {
		recs = append(recs, Record{Desc: "noise", Sequence: letters(rng, 400+rng.Intn(500))})
	}
	start := rng.Intn(len(root) - 250)
	return recs, root[start : start+250], family
}

func TestBuildAndSearch(t *testing.T) {
	recs, query, family := testRecords(61)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := db.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	famFound := 0
	for _, r := range rs[:minInt(len(rs), len(family))] {
		if family[r.ID] {
			famFound++
		}
		if r.Desc == "" {
			t.Errorf("result %d missing description", r.ID)
		}
	}
	if famFound < len(family)-1 {
		t.Errorf("found %d of %d family members", famFound, len(family))
	}
	// The default (banded) fine phase produces transcripts too: the
	// top answer carries spans and identity.
	top := rs[0]
	if top.Identity <= 0.5 {
		t.Errorf("banded top identity = %v, want > 0.5", top.Identity)
	}
	if top.QueryEnd <= top.QueryStart || top.SubjectEnd <= top.SubjectStart {
		t.Errorf("banded top spans degenerate: %+v", top)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestBuildRejectsBadSequence(t *testing.T) {
	_, err := Build([]Record{{Desc: "bad", Sequence: "ACGX"}}, DefaultBuildConfig())
	if err == nil {
		t.Error("invalid sequence accepted")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Errorf("error does not name the record: %v", err)
	}
}

func TestSearchRejectsBadQuery(t *testing.T) {
	recs, _, _ := testRecords(62)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Search("ACG!T", DefaultSearchOptions()); err == nil {
		t.Error("invalid query accepted")
	}
	if _, err := db.Search("ACG", DefaultSearchOptions()); err == nil {
		t.Error("too-short query accepted")
	}
}

func TestBuildFromFasta(t *testing.T) {
	fasta := ">one first record\nACGTACGTACGTACGTACGT\nACGTACGTACGT\n>two\nTTTTGGGGCCCCAAAATTTT\n"
	cfg := DefaultBuildConfig()
	cfg.IntervalLength = 6
	db, err := BuildFromFasta(strings.NewReader(fasta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if db.NumSequences() != 2 {
		t.Fatalf("NumSequences = %d", db.NumSequences())
	}
	if db.Desc(0) != "one first record" {
		t.Errorf("Desc(0) = %q", db.Desc(0))
	}
	if got := db.Sequence(1); got != "TTTTGGGGCCCCAAAATTTT" {
		t.Errorf("Sequence(1) = %q", got)
	}
	opts := DefaultSearchOptions()
	opts.MinCoarseHits = 1
	rs, err := db.Search("ACGTACGTACGT", opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 || rs[0].ID != 0 {
		t.Errorf("search in tiny db = %+v", rs)
	}
}

func TestSaveOpenRoundTrip(t *testing.T) {
	recs, query, _ := testRecords(63)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumSequences() != db.NumSequences() || reopened.TotalBases() != db.TotalBases() {
		t.Fatal("reopened database shape differs")
	}
	a, err := db.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := reopened.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Score != b[i].Score {
			t.Fatalf("result %d differs after reload: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), DefaultScoring()); err == nil {
		t.Error("missing directory accepted")
	}
}

// TestOpenRejectsDirectoryWithoutManifest: a directory holding only the
// store/index pair an older cafe-build wrote is refused by both open
// paths with an error that names what is missing and the remedy, and
// nothing in it is touched.
func TestOpenRejectsDirectoryWithoutManifest(t *testing.T) {
	recs, _, _ := testRecords(65)
	var store db.Store
	for _, r := range recs {
		store.Add(r.Desc, dna.MustEncode(r.Sequence))
	}
	idx, err := index.Build(&store, index.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files := map[string]func(io.Writer) error{"sequences.ndb": store.Save, "intervals.ndx": idx.Save}
	for name, save := range files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, open := range map[string]func(string, Scoring) (*Database, error){"Open": Open, "OpenPaged": OpenPaged} {
		_, err := open(dir, DefaultScoring())
		if err == nil {
			t.Fatalf("%s accepted a directory without a MANIFEST", name)
		}
		if !strings.Contains(err.Error(), "MANIFEST") || !strings.Contains(err.Error(), "cafe-build") {
			t.Errorf("%s error names neither MANIFEST nor cafe-build: %v", name, err)
		}
		for file := range files {
			if _, err := os.Stat(filepath.Join(dir, file)); err != nil {
				t.Errorf("%s removed %s: %v", name, file, err)
			}
		}
	}
}

func TestConcurrentSearches(t *testing.T) {
	recs, query, _ := testRecords(64)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Search(query, DefaultSearchOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := db.Search(query, DefaultSearchOptions())
			if err != nil {
				errs <- err
				return
			}
			if len(got) != len(want) {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestExactSearchReportsIdentity(t *testing.T) {
	recs, query, _ := testRecords(65)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSearchOptions()
	opts.Exact = true
	rs, err := db.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	top := rs[0]
	if top.Identity <= 0.5 || top.Identity > 1 {
		t.Errorf("top identity = %v, want (0.5,1]", top.Identity)
	}
	if top.QueryEnd <= top.QueryStart || top.SubjectEnd <= top.SubjectStart {
		t.Errorf("degenerate spans: %+v", top)
	}
}

func TestDiagonalSearch(t *testing.T) {
	recs, query, family := testRecords(66)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSearchOptions()
	opts.CoarseMode = CoarseDiagonal
	rs, err := db.Search(query, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) == 0 {
		t.Fatal("no results")
	}
	if !family[rs[0].ID] {
		t.Errorf("diagonal search top hit %d not in family", rs[0].ID)
	}

	// Diagonal mode on an offsets-free database must fail loudly.
	cfg := DefaultBuildConfig()
	cfg.StoreOffsets = false
	lean, err := Build(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lean.Search(query, opts); err == nil {
		t.Error("diagonal search accepted without offsets")
	}

	// An out-of-range ranking is rejected, never defaulted, and so is an
	// unknown name.
	opts.CoarseMode = CoarseDiagonal + 1
	if _, err := db.Search(query, opts); !errors.Is(err, ErrInvalid) {
		t.Errorf("out-of-range coarse mode: %v, want ErrInvalid", err)
	}
	if err := opts.CoarseMode.UnmarshalText([]byte("cosine")); !errors.Is(err, ErrInvalid) {
		t.Errorf("unknown coarse mode name: %v, want ErrInvalid", err)
	}
}

// TestDefaultSearchOptionsAreCore pins the facade's defaults to the
// engine's one defaults literal.
func TestDefaultSearchOptionsAreCore(t *testing.T) {
	if got, want := DefaultSearchOptions().internal(), core.DefaultOptions(); got != want {
		t.Fatalf("DefaultSearchOptions().internal() = %+v, want core.DefaultOptions() %+v", got, want)
	}
}

func TestStats(t *testing.T) {
	recs, _, _ := testRecords(67)
	cfg := DefaultBuildConfig()
	cfg.StopFraction = 0.01
	db, err := Build(recs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.NumSequences != len(recs) || st.TotalBases != db.TotalBases() {
		t.Errorf("stats shape wrong: %+v", st)
	}
	if st.StoreBytes <= 0 || st.IndexBytes <= 0 || st.TermsIndexed <= 0 {
		t.Errorf("stats sizes missing: %+v", st)
	}
	if st.TermsStopped == 0 {
		t.Errorf("stopping recorded no terms: %+v", st)
	}
	if st.IntervalLen != cfg.IntervalLength {
		t.Errorf("IntervalLen = %d", st.IntervalLen)
	}
	// Compression sanity: store well below 1 byte/base.
	if float64(st.StoreBytes) > 0.4*float64(st.TotalBases) {
		t.Errorf("store %d bytes for %d bases", st.StoreBytes, st.TotalBases)
	}
}

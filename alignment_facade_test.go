package nucleodb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nucleodb/internal/dna"
)

var (
	alignHeaderRE = regexp.MustCompile(`^score (-?\d+), identity (\d+)% \(\d+/\d+\), gaps \d+$`)
	alignLaneRE   = regexp.MustCompile(`^(Query|Sbjct) +(\d+)  \S+  (\d+)$`)
)

// checkRendered holds db.Alignment(query, r) to r: the header reads r's
// score and identity, and the first and last printed positions of
// either sequence are r's spans.
func checkRendered(t *testing.T, label string, db *Database, query string, r Result) {
	t.Helper()
	text, err := db.Alignment(query, r)
	if err != nil {
		t.Fatalf("%s: record %d: %v", label, r.ID, err)
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	m := alignHeaderRE.FindStringSubmatch(lines[0])
	if m == nil {
		t.Fatalf("%s: record %d: header %q:\n%s", label, r.ID, lines[0], text)
	}
	if m[1] != strconv.Itoa(r.Score) || m[2] != fmt.Sprintf("%.0f", 100*r.Identity) {
		t.Errorf("%s: record %d listed at score %d, identity %.0f%%, rendered %q", label, r.ID, r.Score, 100*r.Identity, lines[0])
	}
	first := map[string]string{}
	last := map[string]string{}
	for _, line := range lines[1:] {
		if m := alignLaneRE.FindStringSubmatch(line); m != nil {
			if _, ok := first[m[1]]; !ok {
				first[m[1]] = m[2]
			}
			last[m[1]] = m[3]
		}
	}
	for lane, span := range map[string][2]int{"Query": {r.QueryStart, r.QueryEnd}, "Sbjct": {r.SubjectStart, r.SubjectEnd}} {
		if first[lane] != strconv.Itoa(span[0]+1) || last[lane] != strconv.Itoa(span[1]) {
			t.Errorf("%s: record %d: %s lane prints %s-%s, result spans [%d,%d):\n%s",
				label, r.ID, lane, first[lane], last[lane], span[0], span[1], text)
		}
	}
}

// TestAlignmentRendering: under the banded default, Exact and
// BothStrands, on an in-memory, a paged and a segmented database, every
// result renders the alignment the search traced.
func TestAlignmentRendering(t *testing.T) {
	recs, query, _ := testRecords(79)
	mem, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := mem.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	paged, err := OpenPaged(dir, DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer paged.Close()
	segmented := buildSegmented(t, recs, 3, rand.New(rand.NewSource(79)))
	rcQuery := dna.String(dna.ReverseComplement(dna.MustEncode(query)))

	exact := DefaultSearchOptions()
	exact.Exact = true
	strands := DefaultSearchOptions()
	strands.BothStrands = true
	for dbName, db := range map[string]*Database{"memory": mem, "paged": paged, "segmented": segmented} {
		for _, c := range []struct {
			name  string
			query string
			opts  SearchOptions
		}{
			{"banded", query, DefaultSearchOptions()},
			{"exact", query, exact},
			{"strands", rcQuery, strands},
		} {
			label := dbName + "/" + c.name
			rs, err := db.Search(c.query, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(rs) == 0 {
				t.Fatalf("%s: no results", label)
			}
			reverse := 0
			for _, r := range rs {
				checkRendered(t, label, db, c.query, r)
				if r.Reverse {
					reverse++
				}
			}
			if c.opts.BothStrands && reverse == 0 {
				t.Errorf("%s: no minus-strand result to render", label)
			}
		}
	}
}

func TestAlignmentErrors(t *testing.T) {
	recs, query, _ := testRecords(80)
	db, err := Build(recs, DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := db.Search(query, DefaultSearchOptions())
	if err != nil || len(rs) == 0 {
		t.Fatalf("search: %d results, err %v", len(rs), err)
	}
	r := rs[0]
	if _, err := db.Alignment("AC!GT", r); err == nil {
		t.Error("invalid query accepted")
	}
	for _, id := range []int{-1, db.NumSequences()} {
		bad := r
		bad.ID = id
		if _, err := db.Alignment(query, bad); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("record id %d: err = %v", id, err)
		}
	}
	// A query other than the one searched, too short for the traced
	// query span: an error, not an index out of range.
	if _, err := db.Alignment(query[:r.QueryEnd-1], r); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("query shorter than the result's span: err = %v", err)
	}
	// Spans a caller edited away from the transcript are refused too.
	shifted := r
	shifted.QueryStart++
	if _, err := db.Alignment(query, shifted); err == nil || !strings.Contains(err.Error(), "does not fit") {
		t.Errorf("spans edited off the transcript: err = %v", err)
	}
	// A result without a transcript renders the one-line summary.
	text, err := db.Alignment(query, Result{ID: r.ID, Score: 7, QueryEnd: 5, SubjectEnd: 9})
	if err != nil {
		t.Fatal(err)
	}
	if want := "score 7, query 1-5, subject 1-9 (no transcript)"; text != want {
		t.Errorf("no-transcript result renders %q, want %q", text, want)
	}
}

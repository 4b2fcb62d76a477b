// Package clitest builds the command-line tools and exercises the full
// pipeline end to end: generate a collection, build a database, search
// it, and inspect it — the workflow a user of the released system runs.
package clitest

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"nucleodb"
	"nucleodb/internal/dna"
)

// buildTools compiles every cmd/ binary into a temp dir once per test
// run and returns their paths.
func buildTools(t *testing.T) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI pipeline in -short mode")
	}
	bin := t.TempDir()
	tools := map[string]string{}
	for _, name := range []string{"cafe-gen", "cafe-build", "cafe-search", "cafe-inspect", "cafe-bench", "cafe-merge"} {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "nucleodb/cmd/"+name)
		cmd.Dir = ".."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		tools[name] = out
	}
	return tools
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	cmd := exec.Command(tool, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", filepath.Base(tool), strings.Join(args, " "), err, out)
	}
	return string(out)
}

func TestPipeline(t *testing.T) {
	tools := buildTools(t)
	work := t.TempDir()
	fasta := filepath.Join(work, "collection.fasta")
	queries := filepath.Join(work, "queries.fasta")
	dbDir := filepath.Join(work, "db")

	// Generate a small collection plus homologous queries.
	out := run(t, tools["cafe-gen"],
		"-seqs", "300", "-seed", "5", "-out", fasta,
		"-queries", "3", "-qout", queries, "-querylen", "300")
	if !strings.Contains(out, "wrote 300 sequences") {
		t.Fatalf("cafe-gen output: %s", out)
	}
	if _, err := os.Stat(queries); err != nil {
		t.Fatal(err)
	}

	// Build the database.
	out = run(t, tools["cafe-build"], "-in", fasta, "-db", dbDir, "-k", "9")
	for _, want := range []string{"built", "sequences:", "store:", "index:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cafe-build output missing %q:\n%s", want, out)
		}
	}
	// There is one on-disk layout: the default build writes a MANIFEST
	// directory.
	if _, err := os.Stat(filepath.Join(dbDir, "MANIFEST")); err != nil {
		t.Fatalf("default cafe-build wrote no MANIFEST: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dbDir, "sequences.ndb")); !os.IsNotExist(err) {
		t.Fatalf("default cafe-build wrote sequences.ndb (stat err = %v)", err)
	}

	// Search with the generated query file.
	out = run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "5", "-show", "1")
	if !strings.Contains(out, "answers in") {
		t.Fatalf("cafe-search output:\n%s", out)
	}
	// Homologous queries must find their family: score lines with hits.
	if !strings.Contains(out, "score") || !strings.Contains(out, "family=") {
		t.Fatalf("cafe-search found no family hits:\n%s", out)
	}
	// -show rendered an alignment block.
	if !strings.Contains(out, "Query") || !strings.Contains(out, "Sbjct") {
		t.Fatalf("cafe-search -show printed no alignment:\n%s", out)
	}

	// Literal query, both strands, exact.
	lit := run(t, tools["cafe-search"], "-db", dbDir,
		"-q", strings.Repeat("ACGT", 10), "-strands", "-exact", "-minscore", "1")
	if !strings.Contains(lit, "query query") {
		t.Fatalf("literal query output:\n%s", lit)
	}

	// TSV output for scripting: tab-separated rows, no prose.
	tsvOut := run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "2", "-tsv")
	for _, line := range strings.Split(strings.TrimSpace(tsvOut), "\n") {
		if fields := strings.Split(line, "\t"); len(fields) != 12 {
			t.Fatalf("tsv line has %d fields: %q", len(fields), line)
		}
	}

	// The one exact route: -exact -tsv is byte-identical to
	// testdata/exact.tsv, written by the last binary that still had a
	// -fine-kernel flag (with "auto", and identically with "scalar") on
	// this same generated collection, and the library's SearchOptions
	// with only Exact set over the defaults returns those ids and scores.
	golden, err := os.ReadFile(filepath.Join("testdata", "exact.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if got := run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-exact", "-limit", "2", "-tsv"); got != string(golden) {
		t.Fatalf("cafe-search -exact -tsv differs from testdata/exact.tsv:\n got:\n%s\nwant:\n%s", got, golden)
	}
	exactDB, err := nucleodb.Open(dbDir, nucleodb.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	defer exactDB.Close()
	qf, err := os.Open(queries)
	if err != nil {
		t.Fatal(err)
	}
	defer qf.Close()
	qs, err := dna.ReadAll(qf)
	if err != nil {
		t.Fatal(err)
	}
	exact := nucleodb.DefaultSearchOptions()
	exact.Exact, exact.Limit = true, 2
	var rows, want []string
	for _, q := range qs {
		hits, err := exactDB.Search(dna.String(q.Codes), exact)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hits {
			rows = append(rows, fmt.Sprintf("%d\t%d", h.ID, h.Score))
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		f := strings.Split(line, "\t")
		want = append(want, f[2]+"\t"+f[4])
	}
	if strings.Join(rows, "\n") != strings.Join(want, "\n") {
		t.Fatalf("library Exact search (id, score) rows:\n%s\nwant the golden's:\n%s", strings.Join(rows, "\n"), strings.Join(want, "\n"))
	}

	// -show on minus-strand hits: the reverse complements of the queries
	// find their families on the minus strand, and each printed
	// alignment is the reverse-complemented query's, so under -exact its
	// score is the one listed for the answer above it.
	var rcFasta strings.Builder
	for i, q := range qs {
		fmt.Fprintf(&rcFasta, ">rc%d\n%s\n", i, dna.String(dna.ReverseComplement(q.Codes)))
	}
	rcQueries := filepath.Join(work, "rc.fasta")
	if err := os.WriteFile(rcQueries, []byte(rcFasta.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	out = run(t, tools["cafe-search"], "-db", dbDir, "-queries", rcQueries, "-exact", "-strands", "-limit", "3", "-show", "3")
	answerRE := regexp.MustCompile(`^\s+\d+\. score (\d+) `)
	shownRE := regexp.MustCompile(`^\s+score (\d+),`)
	var listed string
	minus, shown := false, 0
	for _, line := range strings.Split(out, "\n") {
		if m := answerRE.FindStringSubmatch(line); m != nil {
			listed, minus = m[1], strings.Contains(line, "(minus strand)")
		} else if m := shownRE.FindStringSubmatch(line); m != nil && minus {
			if m[1] != listed {
				t.Fatalf("minus-strand answer listed at score %s shows an alignment at score %s:\n%s", listed, m[1], out)
			}
			shown++
		}
	}
	if shown == 0 {
		t.Fatalf("cafe-search -strands -show printed no minus-strand alignment:\n%s", out)
	}

	// Inspect.
	out = run(t, tools["cafe-inspect"], "-db", dbDir, "-top", "3")
	for _, want := range []string{"store:", "index:", "posting-list lengths", "most frequent intervals"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cafe-inspect output missing %q:\n%s", want, out)
		}
	}

	// Merge the database with a second segment and re-search: the
	// combined database must still answer.
	fasta2 := filepath.Join(work, "more.fasta")
	db2 := filepath.Join(work, "db2")
	merged := filepath.Join(work, "merged")
	run(t, tools["cafe-gen"], "-seqs", "50", "-seed", "9", "-out", fasta2)
	run(t, tools["cafe-build"], "-in", fasta2, "-db", db2, "-k", "9")
	out = run(t, tools["cafe-merge"], "-a", dbDir, "-b", db2, "-out", merged)
	if !strings.Contains(out, "merged 300 + 50 sequences") {
		t.Fatalf("cafe-merge output:\n%s", out)
	}
	var mergedSummary struct {
		Sequences int               `json:"sequences"`
		Segments  []json.RawMessage `json:"segments"`
	}
	out = run(t, tools["cafe-inspect"], "-db", merged, "-json")
	if err := json.Unmarshal([]byte(out), &mergedSummary); err != nil {
		t.Fatalf("cafe-inspect -json on merged db: %v\n%s", err, out)
	}
	if mergedSummary.Sequences != 350 || len(mergedSummary.Segments) != 2 {
		t.Fatalf("merged db has %d sequences in %d segments, want 350 in 2:\n%s",
			mergedSummary.Sequences, len(mergedSummary.Segments), out)
	}
	out = run(t, tools["cafe-search"], "-db", merged, "-queries", queries, "-limit", "3")
	if !strings.Contains(out, "answers in") {
		t.Fatalf("search on merged db:\n%s", out)
	}

	// A spaced-seed database builds and searches too.
	dbSpaced := filepath.Join(work, "db-spaced")
	out = run(t, tools["cafe-build"], "-in", fasta, "-db", dbSpaced,
		"-mask", "1110100101", "-stop", "0.01")
	if !strings.Contains(out, "built") {
		t.Fatalf("spaced build output:\n%s", out)
	}
	out = run(t, tools["cafe-search"], "-db", dbSpaced, "-queries", queries, "-limit", "3")
	if !strings.Contains(out, "answers in") {
		t.Fatalf("spaced search output:\n%s", out)
	}
	out = run(t, tools["cafe-inspect"], "-db", dbSpaced)
	if !strings.Contains(out, "interval length:  6") || strings.Contains(out, "skip interval") {
		t.Fatalf("inspect on spaced db:\n%s", out)
	}

	// Skipped lists and indexes without offsets are gone: -skip and
	// -offsets are unknown flags, and nothing is written for them.
	for _, arg := range []string{"-skip=1", "-offsets=false"} {
		name, _, _ := strings.Cut(arg, "=")
		dbRefused := filepath.Join(work, "db"+name)
		refusedOut, err := exec.Command(tools["cafe-build"], "-in", fasta, "-db", dbRefused, arg).CombinedOutput()
		if err == nil || !strings.Contains(string(refusedOut), "flag provided but not defined: "+name) {
			t.Fatalf("cafe-build %s: err %v, output:\n%s", arg, err, refusedOut)
		}
		if _, err := os.Stat(dbRefused); !os.IsNotExist(err) {
			t.Fatalf("refused build left %s behind (stat err = %v)", dbRefused, err)
		}
	}

	// A multi-segment database gets the same one inspect view: the
	// per-segment table and the collection-wide posting statistics.
	fasta12 := filepath.Join(work, "twelve.fasta")
	db12 := filepath.Join(work, "db12")
	run(t, tools["cafe-gen"], "-seqs", "120", "-seed", "7", "-out", fasta12)
	run(t, tools["cafe-build"], "-in", fasta12, "-db", db12, "-segment-size", "10")
	out = run(t, tools["cafe-inspect"], "-db", db12, "-top", "3")
	for _, want := range []string{"segments: 12", "seg-000011", "posting-list lengths", "most frequent intervals"} {
		if !strings.Contains(out, want) {
			t.Fatalf("cafe-inspect on 12-segment db missing %q:\n%s", want, out)
		}
	}

	// A database from the default build is bound to its directory when
	// opened: an append survives a reopen.
	d, err := nucleodb.Open(dbDir, nucleodb.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append([]nucleodb.Record{{Desc: "appended", Sequence: strings.Repeat("ACGTTGCA", 20)}}); err != nil {
		t.Fatal(err)
	}
	d, err = nucleodb.Open(dbDir, nucleodb.DefaultScoring())
	if err != nil {
		t.Fatal(err)
	}
	if got := d.NumSequences(); got != 301 || d.Desc(300) != "appended" {
		t.Fatalf("reopened database has %d sequences (record 300 %q), want the 301st appended", got, d.Desc(got-1))
	}

	// A focused bench experiment exercises the experiment runner end to
	// end.
	out = run(t, tools["cafe-bench"], "-run", "E10", "-bases", "100000", "-queries", "4")
	if !strings.Contains(out, "E10") || !strings.Contains(out, "query bases") {
		t.Fatalf("cafe-bench output:\n%s", out)
	}
}

// statsGolden is the stable skeleton of a cafe-search -stats block:
// latencies vary run to run, so the golden comparison keeps labels and
// work counters and blanks out every duration.
var (
	statsDurationRE = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|us|ms|s)\b`)
	spaceRunRE      = regexp.MustCompile(`\s+`)
)

// goldenStats extracts the -stats block lines with durations masked and
// whitespace runs collapsed (the duration column is padded, so masking
// alone leaves width noise).
func goldenStats(out string) []string {
	var block []string
	for _, line := range strings.Split(out, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "stats:") ||
			strings.HasPrefix(trimmed, "coarse:") ||
			strings.HasPrefix(trimmed, "prescreen:") ||
			strings.HasPrefix(trimmed, "fine:") ||
			strings.HasPrefix(trimmed, "traceback:") ||
			strings.HasPrefix(trimmed, "total:") {
			masked := statsDurationRE.ReplaceAllString(trimmed, "<dur>")
			block = append(block, spaceRunRE.ReplaceAllString(masked, " "))
		}
	}
	return block
}

// TestSearchStatsGolden locks in the -stats output: the stable fields
// (stage labels and work counters) must match the golden skeleton
// exactly across runs, and the answer lines must be byte-identical to a
// search without -stats — instrumentation is observably non-perturbing
// from the command line too.
func TestSearchStatsGolden(t *testing.T) {
	tools := buildTools(t)
	work := t.TempDir()
	fasta := filepath.Join(work, "collection.fasta")
	queries := filepath.Join(work, "queries.fasta")
	dbDir := filepath.Join(work, "db")
	run(t, tools["cafe-gen"],
		"-seqs", "200", "-seed", "11", "-out", fasta,
		"-queries", "1", "-qout", queries, "-querylen", "300")
	run(t, tools["cafe-build"], "-in", fasta, "-db", dbDir, "-k", "9")

	plain := run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "5")
	withStats := run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "5", "-stats")

	// Answer lines ("  1. score ...") are unchanged by -stats.
	answers := func(out string) []string {
		var got []string
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "score") && strings.Contains(line, "seq") {
				got = append(got, line)
			}
		}
		return got
	}
	pa, sa := answers(plain), answers(withStats)
	if len(pa) == 0 || strings.Join(pa, "\n") != strings.Join(sa, "\n") {
		t.Fatalf("-stats changed the answers:\nplain:\n%s\nstats:\n%s", plain, withStats)
	}

	// The stats block has the golden shape: every stage label present,
	// counters plausible, and a second run produces the identical
	// skeleton (counters are deterministic; only durations vary).
	block := goldenStats(withStats)
	if len(block) != 6 {
		t.Fatalf("stats block has %d lines, want 6:\n%s", len(block), withStats)
	}
	for i, wantPrefix := range []string{"stats:", "coarse:", "prescreen:", "fine:", "traceback:", "total:"} {
		if !strings.HasPrefix(block[i], wantPrefix) {
			t.Fatalf("stats line %d = %q, want prefix %q", i, block[i], wantPrefix)
		}
	}
	for _, want := range []string{"terms", "lists", "postings", "bytes", "sequences", "candidates", "rejected", "alignments", "dp-cells", "results"} {
		if !strings.Contains(strings.Join(block, "\n"), want) {
			t.Fatalf("stats block missing counter %q:\n%s", want, strings.Join(block, "\n"))
		}
	}
	again := goldenStats(run(t, tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "5", "-stats"))
	if strings.Join(block, "\n") != strings.Join(again, "\n") {
		t.Fatalf("stats skeleton not deterministic:\nfirst:\n%s\nsecond:\n%s",
			strings.Join(block, "\n"), strings.Join(again, "\n"))
	}

	// In -tsv mode the stats go to stderr, keeping stdout machine-clean.
	cmd := exec.Command(tools["cafe-search"], "-db", dbDir, "-queries", queries, "-limit", "2", "-tsv", "-stats")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("tsv+stats: %v\n%s", err, stderr.String())
	}
	if strings.Contains(stdout.String(), "stats:") || strings.Contains(stdout.String(), "process totals") {
		t.Fatalf("-tsv stdout polluted by stats:\n%s", stdout.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		if fields := strings.Split(line, "\t"); len(fields) != 12 {
			t.Fatalf("-tsv -stats stdout line has %d fields: %q", len(fields), line)
		}
	}
	if !strings.Contains(stderr.String(), "stats:") {
		t.Fatalf("-tsv -stats printed no stats on stderr:\n%s", stderr.String())
	}
}

// TestInspectJSON: cafe-inspect -json summarises the database in
// machine-readable form.
func TestInspectJSON(t *testing.T) {
	tools := buildTools(t)
	work := t.TempDir()
	fasta := filepath.Join(work, "collection.fasta")
	dbDir := filepath.Join(work, "db")
	run(t, tools["cafe-gen"], "-seqs", "50", "-seed", "3", "-out", fasta)
	run(t, tools["cafe-build"], "-in", fasta, "-db", dbDir, "-k", "9")
	out := run(t, tools["cafe-inspect"], "-db", dbDir, "-json")
	var m map[string]any
	if err := json.Unmarshal([]byte(out), &m); err != nil {
		t.Fatalf("cafe-inspect -json not JSON: %v\n%s", err, out)
	}
	for _, key := range []string{"sequences", "bases", "index_bytes", "postings_bytes", "total_postings", "interval_length"} {
		v, ok := m[key].(float64)
		if !ok || v <= 0 {
			t.Fatalf("summary key %q = %v, want positive number:\n%s", key, m[key], out)
		}
	}
}

func TestSearchRejectsMissingDatabase(t *testing.T) {
	tools := buildTools(t)
	cmd := exec.Command(tools["cafe-search"], "-db", filepath.Join(t.TempDir(), "nope"), "-q", "ACGTACGTACGT")
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("missing database accepted:\n%s", out)
	}
}

func TestBuildRejectsBadFasta(t *testing.T) {
	tools := buildTools(t)
	work := t.TempDir()
	bad := filepath.Join(work, "bad.fasta")
	if err := os.WriteFile(bad, []byte(">x\nACGT!!\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(tools["cafe-build"], "-in", bad, "-db", filepath.Join(work, "db"))
	if out, err := cmd.CombinedOutput(); err == nil {
		t.Fatalf("bad FASTA accepted:\n%s", out)
	}
}

// Package servertest is the golden end-to-end harness for cafe-serve:
// it builds a tiny deterministic corpus, starts the real server binary
// on a random port, replays the committed query script, and diffs each
// normalised JSON response against a committed golden file. Run with
// -update to regenerate the goldens after an intentional wire-format
// change:
//
//	go test ./clitest/servertest -run TestServeGolden -update
package servertest

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"nucleodb"
	"nucleodb/internal/dna"
	"nucleodb/internal/gen"
)

var update = flag.Bool("update", false, "rewrite golden files from live responses")

// corpusSeed and corpusSize pin the generated collection; the queries
// in testdata/script.json are fragments of these records, so changing
// either invalidates the script and the goldens.
const (
	corpusSeed = 7
	corpusSize = 120
)

// buildTools compiles the named cmd/ binaries into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("server end-to-end harness in -short mode")
	}
	bin := t.TempDir()
	tools := map[string]string{}
	for _, name := range names {
		out := filepath.Join(bin, name)
		cmd := exec.Command("go", "build", "-o", out, "nucleodb/cmd/"+name)
		cmd.Dir = "../.."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", name, err, msg)
		}
		tools[name] = out
	}
	return tools
}

// buildCorpus generates the deterministic collection, builds a
// database from it, and saves it under a temp dir.
func buildCorpus(t *testing.T) string {
	t.Helper()
	col, err := gen.Generate(gen.DefaultConfig(corpusSize, corpusSeed))
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]nucleodb.Record, len(col.Records))
	for i, r := range col.Records {
		recs[i] = nucleodb.Record{Desc: r.Desc, Sequence: dna.String(r.Codes)}
	}
	db, err := nucleodb.Build(recs, nucleodb.DefaultBuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := db.SaveSegmented(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// server is one running cafe-serve process.
type server struct {
	base   string
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	// scanDone closes when the stderr scanner goroutine has consumed the
	// pipe to EOF. drain must wait on it before calling cmd.Wait: Wait
	// closes the pipe (os/exec contract — all reads must complete
	// first), so waiting both prevents losing buffered output and
	// orders the final writes to stderr before drain reads it.
	scanDone chan struct{}
}

// startServer launches cafe-serve on a random port and waits for the
// "listening on" line that names the bound address.
func startServer(t *testing.T, bin, dbDir string, extra ...string) *server {
	t.Helper()
	args := append([]string{"-db", dbDir, "-addr", "127.0.0.1:0", "-workers", "4", "-cache", "256"}, extra...)
	cmd := exec.Command(bin, args...)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	s := &server{cmd: cmd, stderr: &bytes.Buffer{}, scanDone: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(s.scanDone)
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			s.stderr.WriteString(line + "\n")
			if _, addr, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addrc <- strings.TrimSpace(addr):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		s.base = addr
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("cafe-serve never announced its address:\n%s", s.stderr.String())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	return s
}

// drain sends SIGTERM and waits for a clean exit. The stderr pipe is
// read to EOF before cmd.Wait runs: Wait would close the pipe under
// the scanner and drop its buffered tail, which intermittently lost
// the "drained" line this function asserts on.
func (s *server) drain(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-s.scanDone:
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		t.Fatalf("cafe-serve did not drain within 30s:\n%s", s.stderr.String())
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("cafe-serve exited uncleanly: %v\n%s", err, s.stderr.String())
		}
	case <-time.After(30 * time.Second):
		s.cmd.Process.Kill()
		t.Fatalf("cafe-serve did not exit within 30s of closing stderr:\n%s", s.stderr.String())
	}
	if !strings.Contains(s.stderr.String(), "drained") {
		t.Fatalf("cafe-serve exited without draining:\n%s", s.stderr.String())
	}
}

// step is one scripted request. QueryBases, when set, stands for a
// body too long to write out in the script: {"query":"AAA…"} with that
// many bases.
type step struct {
	Name       string          `json:"name"`
	Method     string          `json:"method"`
	Path       string          `json:"path"`
	Body       json.RawMessage `json:"body,omitempty"`
	QueryBases int             `json:"query_bases,omitempty"`
}

// observation is what a step's golden file records.
type observation struct {
	Status int    `json:"status"`
	Cache  string `json:"cache,omitempty"`
	Body   any    `json:"body"`
}

// normalise zeroes every JSON number under a key ending in _us or _ns
// (latency fields vary run to run; everything else in the wire format
// is deterministic for a fixed corpus and script).
func normalise(v any) any {
	switch x := v.(type) {
	case map[string]any:
		for k, val := range x {
			if strings.HasSuffix(k, "_us") || strings.HasSuffix(k, "_ns") {
				if _, isNum := val.(float64); isNum {
					x[k] = 0
					continue
				}
			}
			x[k] = normalise(val)
		}
		return x
	case []any:
		for i := range x {
			x[i] = normalise(x[i])
		}
		return x
	default:
		return v
	}
}

// replay executes one step against base and returns its observation.
func replay(t *testing.T, client *http.Client, base string, st step) observation {
	t.Helper()
	method := st.Method
	if method == "" {
		method = http.MethodGet
	}
	var body io.Reader
	if len(st.Body) > 0 {
		body = bytes.NewReader(st.Body)
	}
	if st.QueryBases > 0 {
		body = strings.NewReader(`{"query":"` + strings.Repeat("A", st.QueryBases) + `"}`)
	}
	req, err := http.NewRequest(method, base+st.Path, body)
	if err != nil {
		t.Fatalf("step %s: %v", st.Name, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("step %s: %v", st.Name, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("step %s: reading body: %v", st.Name, err)
	}
	var decoded any
	if err := json.Unmarshal(raw, &decoded); err != nil {
		t.Fatalf("step %s: response is not JSON: %v\n%s", st.Name, err, raw)
	}
	return observation{
		Status: resp.StatusCode,
		Cache:  resp.Header.Get("X-Cafe-Cache"),
		Body:   normalise(decoded),
	}
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".json")
}

// TestServeGolden replays testdata/script.json against a fresh
// cafe-serve and diffs every response against its golden file, then
// drains the server with SIGTERM.
func TestServeGolden(t *testing.T) {
	tools := buildTools(t, "cafe-serve")
	dbDir := buildCorpus(t)
	srv := startServer(t, tools["cafe-serve"], dbDir)

	raw, err := os.ReadFile(filepath.Join("testdata", "script.json"))
	if err != nil {
		t.Fatal(err)
	}
	var script []step
	if err := json.Unmarshal(raw, &script); err != nil {
		t.Fatalf("testdata/script.json: %v", err)
	}
	client := &http.Client{Timeout: 60 * time.Second}
	for _, st := range script {
		got := replay(t, client, srv.base, st)
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		buf = append(buf, '\n')
		path := goldenPath(st.Name)
		if *update {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("step %s: no golden file (run with -update to create): %v", st.Name, err)
		}
		if !bytes.Equal(buf, want) {
			t.Errorf("step %s: response diverged from golden %s:\n--- got ---\n%s--- want ---\n%s",
				st.Name, path, buf, want)
		}
	}
	srv.drain(t)
}

// TestServeMatchesCafeSearch is the acceptance parity check: /search
// on a running cafe-serve returns the same hits (id, score, spans) as
// the cafe-search CLI for the same query against the same database.
func TestServeMatchesCafeSearch(t *testing.T) {
	tools := buildTools(t, "cafe-serve", "cafe-search")
	dbDir := buildCorpus(t)
	srv := startServer(t, tools["cafe-serve"], dbDir)
	defer srv.drain(t)

	raw, err := os.ReadFile(filepath.Join("testdata", "script.json"))
	if err != nil {
		t.Fatal(err)
	}
	var script []step
	if err := json.Unmarshal(raw, &script); err != nil {
		t.Fatal(err)
	}
	// Use the script's first plain search query so parity is checked on
	// committed data.
	var query string
	for _, st := range script {
		if _, q, ok := strings.Cut(st.Path, "?q="); ok {
			query = q[:strings.IndexAny(q+"&", "&")]
			break
		}
	}
	if query == "" {
		t.Fatal("script has no ?q= search step")
	}

	resp, err := http.Get(srv.base + "/search?q=" + query + "&limit=5&nocache=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/search status %d err %v: %s", resp.StatusCode, err, body)
	}
	var sr struct {
		Results []struct {
			ID    int `json:"id"`
			Score int `json:"score"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(tools["cafe-search"], "-db", dbDir, "-q", query, "-limit", "5", "-tsv").CombinedOutput()
	if err != nil {
		t.Fatalf("cafe-search: %v\n%s", err, out)
	}
	var cli []struct{ id, score int }
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) != 12 {
			t.Fatalf("unexpected cafe-search tsv line: %q", line)
		}
		var id, score int
		fmt.Sscanf(f[2], "%d", &id)
		fmt.Sscanf(f[4], "%d", &score)
		cli = append(cli, struct{ id, score int }{id, score})
	}
	if len(cli) == 0 || len(cli) != len(sr.Results) {
		t.Fatalf("hit counts diverge: HTTP %d, CLI %d\nHTTP: %s\nCLI: %s", len(sr.Results), len(cli), body, out)
	}
	for i := range cli {
		if cli[i].id != sr.Results[i].ID || cli[i].score != sr.Results[i].Score {
			t.Fatalf("hit %d diverges: HTTP id %d score %d, CLI id %d score %d",
				i, sr.Results[i].ID, sr.Results[i].Score, cli[i].id, cli[i].score)
		}
	}
}

// TestServeLiveCompactionGolden is the end-to-end lockdown for serving
// during compaction. cafe-gen reproduces the exact golden corpus
// (corpusSeed/corpusSize), cafe-build writes it as a 12-segment
// database, and cafe-serve opens it with the background compactor told
// to fold everything to one segment. While the fold runs, concurrent
// searches must all answer 200 with results; the segments_total gauge
// in /metrics must reach 1; and the committed query script must then
// replay byte-identically against the committed goldens — the same
// files the one-segment server produced, proving the segment count is
// invisible on the wire.
func TestServeLiveCompactionGolden(t *testing.T) {
	tools := buildTools(t, "cafe-gen", "cafe-build", "cafe-serve")
	work := t.TempDir()
	fasta := filepath.Join(work, "collection.fasta")
	dbDir := filepath.Join(work, "db")

	if out, err := exec.Command(tools["cafe-gen"],
		"-seqs", fmt.Sprint(corpusSize), "-seed", fmt.Sprint(corpusSeed),
		"-out", fasta).CombinedOutput(); err != nil {
		t.Fatalf("cafe-gen: %v\n%s", err, out)
	}
	out, err := exec.Command(tools["cafe-build"],
		"-in", fasta, "-db", dbDir, "-segment-size", "10").CombinedOutput()
	if err != nil {
		t.Fatalf("cafe-build: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "segments:       12") {
		t.Fatalf("cafe-build did not report 12 segments:\n%s", out)
	}

	srv := startServer(t, tools["cafe-serve"], dbDir, "-max-segments", "1")
	client := &http.Client{Timeout: 60 * time.Second}

	// Hammer /search (cache bypassed, so the golden replay below still
	// sees its scripted miss/hit sequence) while the compactor folds
	// 12 segments down to 1.
	const liveQuery = "CTTTTCTTTTTGGTCAAACTTTTGAGCACTACTTCCCTTATGAACTCACTCGTTGGTTCTTTAAAGAGAGTTCTAATAAT"
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(srv.base + "/search?q=" + liveQuery + "&limit=5&nocache=1")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"results"`) {
					errs <- fmt.Errorf("mid-compaction search: status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}()
	}

	// Wait for segments_total to hit 1 in /metrics while the hammer
	// runs.
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := client.Get(srv.base + "/metrics")
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		var snap struct {
			Gauges map[string]int64 `json:"gauges"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("/metrics: %v", err)
		}
		if snap.Gauges["segments_total"] == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("compaction never settled: segments_total = %d\n%s",
				snap.Gauges["segments_total"], srv.stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Settled: the committed script must reproduce the committed
	// goldens exactly, as if the database had been monolithic all
	// along. (Skipped under -update: TestServeGolden owns regeneration.)
	if !*update {
		raw, err := os.ReadFile(filepath.Join("testdata", "script.json"))
		if err != nil {
			t.Fatal(err)
		}
		var script []step
		if err := json.Unmarshal(raw, &script); err != nil {
			t.Fatal(err)
		}
		for _, st := range script {
			got := replay(t, client, srv.base, st)
			buf, err := json.MarshalIndent(got, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, '\n')
			want, err := os.ReadFile(goldenPath(st.Name))
			if err != nil {
				t.Fatalf("step %s: %v", st.Name, err)
			}
			if !bytes.Equal(buf, want) {
				t.Errorf("step %s: compacted server diverged from monolithic golden:\n--- got ---\n%s--- want ---\n%s",
					st.Name, buf, want)
			}
		}
	}
	srv.drain(t)
}

package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with the current output")

const (
	fixtureModule = "../../internal/analysis/testdata/src/fixture"
	brokenModule  = "../../internal/analysis/testdata/src/broken"
)

// TestRunFixtureModule drives the CLI end to end against the seeded
// fixture module: dirty tree → exit 1 with findings on stdout, a clean
// package selection → exit 0, no module → exit 2.
func TestRunFixtureModule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", fixtureModule, "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d on a module with seeded violations, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	for _, marker := range []string{": hotpath: ", ": directive: "} {
		if !strings.Contains(out.String(), marker) {
			t.Errorf("stdout lacks a %q finding:\n%s", marker, out.String())
		}
	}
	if !strings.Contains(errb.String(), "finding(s)") {
		t.Errorf("stderr lacks the finding count: %q", errb.String())
	}

	// fixture/clean passes every pass in the default suite, so
	// selecting it must be clean even though its siblings are dirty.
	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", fixtureModule, "./clean"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d on a clean package selection, want 0\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean selection still printed findings:\n%s", out.String())
	}
}

func TestRunNoModule(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", t.TempDir(), "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d outside any module, want 2\nstderr:\n%s", code, errb.String())
	}
}

// TestRunBrokenPackage locks in the load-failure contract: a package
// that does not type-check makes the run exit 2 with a per-package
// error naming the import path, not exit 0 with the package silently
// skipped.
func TestRunBrokenPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", brokenModule, "./..."}, &out, &errb); code != 2 {
		t.Fatalf("exit %d on a module with a type error, want 2\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "package broken/bad failed to load") {
		t.Errorf("stderr does not name the broken package:\n%s", errb.String())
	}
	if !strings.Contains(errb.String(), "undefined") {
		t.Errorf("stderr does not include the type error:\n%s", errb.String())
	}
}

func TestRunFormatJSON(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", fixtureModule, "-format", "json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var report struct {
		Module   string `json:"module"`
		Count    int    `json:"count"`
		Findings []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Pass string `json:"pass"`
		} `json:"findings"`
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("-format json output does not parse: %v\n%s", err, out.String())
	}
	if report.Module != "fixture" || report.Count == 0 || len(report.Findings) != report.Count {
		t.Errorf("module %q count %d findings %d", report.Module, report.Count, len(report.Findings))
	}
}

func TestRunFormatSARIF(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", fixtureModule, "-format", "sarif", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-format sarif output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) == 0 {
		t.Errorf("version %q, %d runs", log.Version, len(log.Runs))
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-C", fixtureModule, "-format", "yaml", "./..."}, &out, &errb); code != 2 {
		t.Errorf("exit %d on an unknown format, want 2", code)
	}
}

// TestRunSARIFGolden locks the exact SARIF 2.1.0 log for the hotpath,
// ctx and waiver fixture packages against a committed golden file: rule
// metadata, rule indices, relative URIs, and finding order are all part
// of the contract a code-scanning backend sees. Regenerate with
//
//	go test ./cmd/cafe-lint -run TestRunSARIFGolden -update
func TestRunSARIFGolden(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-C", fixtureModule, "-format", "sarif", "./hot", "./ctxpkg", "./directives"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1\nstderr:\n%s", code, errb.String())
	}
	golden := filepath.Join("testdata", "sarif.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("SARIF output drifted from %s (regenerate with -update):\ngot:\n%s\nwant:\n%s",
			golden, out.String(), want)
	}
}

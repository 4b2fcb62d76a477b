package analysis_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"nucleodb/internal/analysis"
)

// The fixture module under testdata/src/fixture seeds one violation per
// construct each pass knows about, marked with trailing //violation:<pass>
// comments. The tests diff the pass output against exactly that set:
// a finding without a marker and a marker without a finding both fail,
// so the clean fixtures double as false-positive regression tests.

const fixtureDir = "testdata/src/fixture"

var fixtureOnce = sync.OnceValues(func() (*analysis.Program, error) {
	return analysis.Load(fixtureDir, "fixture")
})

func loadFixture(t *testing.T) *analysis.Program {
	t.Helper()
	prog, err := fixtureOnce()
	if err != nil {
		t.Fatalf("load fixture module: %v", err)
	}
	if len(prog.Failed) > 0 {
		t.Fatalf("fixture packages failed to load: %v", prog.Failed)
	}
	return prog
}

// keepOnly restricts Analyze to one fixture package.
func keepOnly(path string) func(string) bool {
	return func(p string) bool { return p == path }
}

// wantKeys scans a fixture package's sources for //violation:<pass>
// markers, returning the expected "file:line pass" keys.
func wantKeys(t *testing.T, prog *analysis.Program, pkgPath string) map[string]bool {
	t.Helper()
	rel := strings.TrimPrefix(pkgPath, "fixture/")
	dir := filepath.Join(fixtureDir, filepath.FromSlash(rel))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			_, marker, ok := strings.Cut(line, "//violation:")
			if !ok {
				continue
			}
			pass := strings.Fields(marker)[0]
			want[fmt.Sprintf("%s/%s:%d %s", rel, e.Name(), i+1, pass)] = true
		}
	}
	if len(want) == 0 {
		t.Fatalf("no //violation markers found under %s", dir)
	}
	return want
}

// gotKeys reduces findings to the same "file:line pass" key space,
// deduplicating multiple findings on one line, and returns the rendered
// lines for diagnostics.
func gotKeys(t *testing.T, prog *analysis.Program, findings []analysis.Finding) (map[string]bool, map[string][]string) {
	t.Helper()
	got := map[string]bool{}
	lines := map[string][]string{}
	for _, d := range analysis.NewReport(prog, findings).Findings {
		key := fmt.Sprintf("%s:%d %s", d.File, d.Line, d.Pass)
		got[key] = true
		lines[key] = append(lines[key], d.String())
	}
	return got, lines
}

// render renders findings the way cafe-lint's text output does.
func render(prog *analysis.Program, findings []analysis.Finding) string {
	var b strings.Builder
	_ = analysis.NewReport(prog, findings).WriteText(&b) // a strings.Builder never fails
	return b.String()
}

// runPass runs one pass over one fixture package and diffs its findings
// against the //violation markers in that package's sources.
func runPass(t *testing.T, pass analysis.Pass, pkgPath string) {
	t.Helper()
	prog := loadFixture(t)
	findings := analysis.Analyze(prog, []analysis.Pass{pass}, keepOnly(pkgPath))
	want := wantKeys(t, prog, pkgPath)
	got, lines := gotKeys(t, prog, findings)
	for key := range want {
		if !got[key] {
			t.Errorf("marked violation not reported: %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding: %v", lines[key])
		}
	}
}

func TestHotpathPassFixtures(t *testing.T) {
	runPass(t, &analysis.HotpathPass{}, "fixture/hot")
}

func TestErrcheckPassFixtures(t *testing.T) {
	runPass(t, &analysis.ErrcheckPass{Packages: []string{"fixture/errs"}}, "fixture/errs")
}

func TestCtxPassFixtures(t *testing.T) {
	runPass(t, &analysis.CtxPass{ForbidBackgroundIn: []string{"fixture/ctxpkg"}}, "fixture/ctxpkg")
}

// TestCtxPassScope checks that Background/TODO are only forbidden in
// the configured packages: with no ForbidBackgroundIn, only the
// sibling-call violations remain.
func TestCtxPassScope(t *testing.T) {
	prog := loadFixture(t)
	pass := &analysis.CtxPass{}
	findings := analysis.Analyze(prog, []analysis.Pass{pass}, keepOnly("fixture/ctxpkg"))
	for _, d := range analysis.NewReport(prog, findings).Findings {
		if strings.Contains(d.Message, "context.Background") || strings.Contains(d.Message, "context.TODO") {
			t.Errorf("Background/TODO flagged outside the configured packages: %s", d)
		}
	}
	if len(findings) != 2 {
		t.Errorf("want exactly the 2 sibling-call findings, got %d:\n%s",
			len(findings), render(prog, findings))
	}
}

// TestErrcheckScope checks the package filter: fixture/hot drops
// fmt.Println's error on purpose, and a pass scoped to fixture/errs
// must not see it.
func TestErrcheckScope(t *testing.T) {
	prog := loadFixture(t)
	pass := &analysis.ErrcheckPass{Packages: []string{"fixture/errs"}}
	findings := analysis.Analyze(prog, []analysis.Pass{pass}, keepOnly("fixture/hot"))
	if len(findings) != 0 {
		t.Fatalf("errcheck scoped to fixture/errs reported in fixture/hot:\n%s",
			render(prog, findings))
	}
}

// TestDirectives checks the waiver machinery: the reasoned //cafe:allow
// suppresses its line, the bare //cafe:allow is itself a finding, and
// the un-waived violation still surfaces.
func TestDirectives(t *testing.T) {
	prog := loadFixture(t)
	findings := analysis.Analyze(prog, []analysis.Pass{&analysis.HotpathPass{}}, keepOnly("fixture/directives"))

	src, err := os.ReadFile(filepath.Join(fixtureDir, "directives", "directives.go"))
	if err != nil {
		t.Fatal(err)
	}
	lineOf := func(substr string) int {
		t.Helper()
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, substr) {
				return i + 1
			}
		}
		t.Fatalf("fixture line containing %q not found", substr)
		return 0
	}
	want := map[string]bool{
		fmt.Sprintf("directives/directives.go:%d directive", lineOf("\t//cafe:allow")):        true,
		fmt.Sprintf("directives/directives.go:%d directive", lineOf("//cafe:allow errcheck")): true,
		fmt.Sprintf("directives/directives.go:%d hotpath", lineOf("append(xs, 2)")):           true,
		fmt.Sprintf("directives/directives.go:%d hotpath", lineOf("append(xs, 4)")):           true,
	}
	got, lines := gotKeys(t, prog, findings)
	for key := range want {
		if !got[key] {
			t.Errorf("expected finding missing: %s", key)
		}
	}
	for key := range got {
		if !want[key] {
			t.Errorf("unexpected finding: %v", lines[key])
		}
	}
}

// TestRepoIsClean is the self-check the lint gate relies on: the
// default pass suite over this repository must come back empty, and
// every //cafe:allow waiver must still waive something — a pass it
// covers (the one it names, or any pass when it names none) must report
// a finding on its line before waivers are applied. A waiver that
// suppresses nothing hides the next real finding on its line. Skipped
// in -short runs because make check invokes cafe-lint directly.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("cafe-lint runs in make check; skipping the in-test module load")
	}
	prog, err := analysis.LoadModule(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, fail := range prog.Failed {
		t.Errorf("package %s failed to load: %v", fail.Path, fail.Err)
	}
	passes := analysis.DefaultPasses()
	findings := analysis.Analyze(prog, passes, nil)
	if len(findings) != 0 {
		t.Fatalf("default passes report findings on the repository:\n%s",
			render(prog, findings))
	}

	type line struct {
		file string
		n    int
	}
	raw := map[line]map[string]bool{} // the passes reporting on each line
	known := map[string]bool{}
	for _, p := range passes {
		known[p.Name()] = true
		for _, pkg := range prog.Packages {
			for _, f := range p.Run(prog, pkg) {
				at := line{f.Pos.Filename, f.Pos.Line}
				if raw[at] == nil {
					raw[at] = map[string]bool{}
				}
				raw[at][p.Name()] = true
			}
		}
	}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, "//cafe:allow ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					reported := raw[line{pos.Filename, pos.Line}]
					name := strings.Fields(rest)[0]
					if known[name] && !reported[name] || !known[name] && len(reported) == 0 {
						t.Errorf("%s:%d: %s waives no finding; delete it",
							strings.TrimPrefix(pos.Filename, prog.Root+"/"), pos.Line, c.Text)
					}
				}
			}
		}
	}
}

// TestLoadHonoursBuildConstraints: fixture/arch declares Lanes in an
// _amd64.go file and in a !amd64 file. The loader must keep exactly one,
// as the go tool does, or the package fails to type-check.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	prog := loadFixture(t)
	for _, pkg := range prog.Packages {
		if pkg.Path == "fixture/arch" {
			if len(pkg.Files) != 1 {
				t.Fatalf("fixture/arch loaded %d files, want the one this GOARCH builds", len(pkg.Files))
			}
			return
		}
	}
	t.Fatal("fixture/arch did not load")
}

// TestLoadRecordsPerPackageFailures drives the loader over a module
// with one broken package: the failure must be recorded per package
// with the import path, and the healthy sibling must still load and
// analyze.
func TestLoadRecordsPerPackageFailures(t *testing.T) {
	prog, err := analysis.Load("testdata/src/broken", "broken")
	if err != nil {
		t.Fatalf("a broken package must not abort the module load: %v", err)
	}
	if len(prog.Failed) != 1 {
		t.Fatalf("want exactly 1 failed package, got %d: %v", len(prog.Failed), prog.Failed)
	}
	fail := prog.Failed[0]
	if fail.Path != "broken/bad" {
		t.Errorf("failed package path = %q, want broken/bad", fail.Path)
	}
	if !strings.Contains(fail.Err.Error(), "undefinedIdent") && !strings.Contains(fail.Err.Error(), "undefined") {
		t.Errorf("failure does not name the type error: %v", fail.Err)
	}
	var paths []string
	for _, pkg := range prog.Packages {
		paths = append(paths, pkg.Path)
	}
	if len(prog.Packages) != 1 || prog.Packages[0].Path != "broken/good" {
		t.Errorf("healthy packages = %v, want [broken/good]", paths)
	}
	// Analysis over the partial program must not panic and must stay
	// clean (broken/good has nothing to flag).
	if findings := analysis.Analyze(prog, analysis.DefaultPasses(), nil); len(findings) != 0 {
		t.Errorf("unexpected findings on the healthy package:\n%s",
			render(prog, findings))
	}
}

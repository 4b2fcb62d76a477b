// Command cafe-lint runs the repository's three static-analysis passes
// (hotpath, errcheck and ctx; see internal/analysis) over the module
// and reports findings as
//
//	file:line: pass: message
//
// or, with -format, as a JSON report or a SARIF 2.1.0 log suitable for
// code-scanning upload. A trailing "//cafe:allow <pass> <reason>"
// comment on the reported line is the one way to accept a finding.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure. A package
// that fails to type-check is a load failure: every broken package is
// reported to stderr with its error and the run exits 2, because silent
// partial analysis would let real findings hide behind a typo.
//
// Usage:
//
//	cafe-lint ./...                # whole module (the directory's module)
//	cafe-lint ./internal/index     # restrict findings to one package
//	cafe-lint -format sarif ./...  # SARIF log on stdout
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"nucleodb/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cafe-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory whose module to analyze")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: cafe-lint [-C dir] [-format text|json|sarif] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "cafe-lint: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	prog, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if len(prog.Failed) > 0 {
		for _, fail := range prog.Failed {
			fmt.Fprintf(stderr, "cafe-lint: package %s failed to load: %v\n", fail.Path, fail.Err)
		}
		fmt.Fprintf(stderr, "cafe-lint: %d package(s) failed to type-check; fix them before linting\n", len(prog.Failed))
		return 2
	}
	keep, err := matcher(prog, *dir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	findings, timings := analysis.AnalyzeTimed(prog, analysis.DefaultPasses(), keep)
	report := analysis.NewReport(prog, findings)
	report.Timings = timings

	switch *format {
	case "json":
		if err := report.WriteJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "cafe-lint: %v\n", err)
			return 2
		}
	case "sarif":
		if err := report.WriteSARIF(stdout); err != nil {
			fmt.Fprintf(stderr, "cafe-lint: %v\n", err)
			return 2
		}
	default:
		if err := report.WriteText(stdout); err != nil {
			fmt.Fprintf(stderr, "cafe-lint: %v\n", err)
			return 2
		}
	}
	if report.Count > 0 {
		fmt.Fprintf(stderr, "cafe-lint: %d finding(s)\n", report.Count)
		return 1
	}
	return 0
}

// matcher converts go-style package patterns (./..., ./internal/index,
// nucleodb/internal/postings) into a package filter. The whole module
// is always loaded — cross-package facts like //cafe:hotpath need it —
// and the patterns only select which packages may report findings.
func matcher(prog *analysis.Program, dir string, patterns []string) (func(string) bool, error) {
	var prefixes []string // match path == p or strings.HasPrefix(path, p+"/")
	var exact []string
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "" || pat == "." {
				return nil, nil // everything
			}
		}
		path := pat
		if pat == "." || strings.HasPrefix(pat, "./") || strings.HasPrefix(pat, "../") {
			abs, err := filepath.Abs(filepath.Join(dir, pat))
			if err != nil {
				return nil, fmt.Errorf("cafe-lint: %w", err)
			}
			rel, err := filepath.Rel(prog.Root, abs)
			if err != nil || strings.HasPrefix(rel, "..") {
				return nil, fmt.Errorf("cafe-lint: %s is outside module %s", pat, prog.Module)
			}
			if rel == "." {
				path = prog.Module
			} else {
				path = prog.Module + "/" + filepath.ToSlash(rel)
			}
		}
		if recursive {
			prefixes = append(prefixes, path)
		} else {
			exact = append(exact, path)
		}
	}
	return func(pkgPath string) bool {
		for _, p := range exact {
			if pkgPath == p {
				return true
			}
		}
		for _, p := range prefixes {
			if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
				return true
			}
		}
		return false
	}, nil
}

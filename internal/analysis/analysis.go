// Package analysis implements cafe-lint: a repo-specific static
// analysis suite over the index and alignment kernels, built on the
// standard library's go/parser, go/ast and go/types only.
//
// Three passes enforce the invariants the partitioned-search design
// depends on:
//
//   - hotpath: functions declared with a //cafe:hotpath directive (the
//     postings iterator, the bit-level decoders, the k-mer rolling
//     hash, the banded-DP kernels, the coarse accumulators) must stay
//     allocation-free — no make/new, no map or slice literals, no
//     unbounded append, no fmt, no string conversions, no closures, no
//     interface boxing — and may only call other hotpath functions (or
//     a short list of intrinsics).
//   - errcheck: in the decode packages (internal/index,
//     internal/postings, internal/compress, internal/db) every
//     error-returning call must be checked; a dropped decode error is
//     silent index corruption.
//   - ctx: context must propagate. A function that receives a
//     context.Context may not call a context-free sibling
//     (SearchCodesWithStats where SearchCodesWithStatsContext exists),
//     and the serving packages may not manufacture fresh contexts with
//     context.Background()/TODO().
//
// Pooled scratch and published snapshots are held by tests, not by
// this suite: TestSearcherReuseAcrossQueries (internal/core) fails
// when a returned slice aliases a searcher's scratch,
// TestSnapshotIsolation (the root package) when a writer stores
// through a snapshot a reader loaded, and
// TestCompactSwapsAgainstCurrentSnapshot when Compact swaps against a
// stale one.
//
// A finding on one line can be waived with a trailing
// "//cafe:allow <reason>" comment; the reason is mandatory. Naming a
// pass first ("//cafe:allow ctx <reason>") scopes the waiver to that
// pass alone, leaving the line visible to every other pass. Waivers are
// for constructs the analysis cannot prove safe but a human can: the
// amortised scratch append inside the postings iterator, the O(band)
// setup allocations of the banded kernel, fmt.Errorf on cold
// corruption paths, the documented context-free wrappers.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"time"
)

// Finding is one diagnostic; NewReport renders it.
type Finding struct {
	Pos      token.Position
	PassName string
	Message  string
}

// relFile strips base from an absolute filename when possible.
func relFile(base, file string) string {
	if base != "" {
		if rel, ok := strings.CutPrefix(file, base+"/"); ok {
			return rel
		}
	}
	return file
}

// Pass is one analysis run over a package within a loaded program.
type Pass interface {
	// Name is the short pass identifier used in findings.
	Name() string
	// Run reports the pass's findings for one package.
	Run(prog *Program, pkg *Package) []Finding
}

// DefaultPasses returns the pass suite configured for this repository —
// the configuration cmd/cafe-lint and the self-check test share.
func DefaultPasses() []Pass {
	return []Pass{
		&HotpathPass{},
		&ErrcheckPass{Packages: []string{
			"nucleodb/internal/index",
			"nucleodb/internal/postings",
			"nucleodb/internal/compress",
			"nucleodb/internal/db",
		}},
		&CtxPass{ForbidBackgroundIn: []string{
			"nucleodb/internal/server",
			"nucleodb/internal/core",
		}},
	}
}

// Analyze runs every pass over every package selected by keep (nil
// keeps all), drops findings on //cafe:allow lines, and returns the
// remainder sorted by position.
func Analyze(prog *Program, passes []Pass, keep func(pkgPath string) bool) []Finding {
	findings, _ := AnalyzeTimed(prog, passes, keep)
	return findings
}

// AnalyzeTimed is Analyze plus per-pass wall-clock timings, in pass
// order, accumulated across packages.
func AnalyzeTimed(prog *Program, passes []Pass, keep func(pkgPath string) bool) ([]Finding, []PassTiming) {
	var out []Finding
	elapsed := make([]time.Duration, len(passes))
	for _, pkg := range prog.Packages {
		if keep != nil && !keep(pkg.Path) {
			continue
		}
		out = append(out, pkg.badDirectives...)
		for i, p := range passes {
			start := time.Now()
			found := p.Run(prog, pkg)
			elapsed[i] += time.Since(start)
			for _, f := range found {
				if !pkg.waivedAt(f.Pos, p.Name()) {
					out = append(out, f)
				}
			}
		}
	}
	timings := make([]PassTiming, len(passes))
	for i, p := range passes {
		timings[i] = PassTiming{Pass: p.Name(), Millis: float64(elapsed[i].Nanoseconds()) / 1e6}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Message < out[j].Message
	})
	return out, timings
}

// Directive prefixes. A directive comment has no space after "//", the
// same convention as go:build and go:generate.
const (
	hotpathDirective = "//cafe:hotpath"
	allowDirective   = "//cafe:allow"
)

// isDirective reports whether comment text is the given directive,
// bare or followed by prose.
func isDirective(text, directive string) bool {
	return text == directive || strings.HasPrefix(text, directive+" ")
}

// allScopes is the waiver-map key meaning "every pass": a
// //cafe:allow whose first word names no pass waives the whole line.
const allScopes = ""

// collectDirectives scans a package's comments for cafe: directives,
// filling the program's hotpath set and the package's waived-line map.
func collectDirectives(prog *Program, pkg *Package) {
	for _, file := range pkg.Files {
		filename := prog.Fset.Position(file.Pos()).Filename
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok {
					continue
				}
				pos := prog.Fset.Position(c.Pos())
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					// Some other //cafe:allowX token; not this directive.
					pkg.badDirectives = append(pkg.badDirectives, Finding{
						Pos:      pos,
						PassName: "directive",
						Message:  "cafe:allow needs a reason: //cafe:allow [pass] <why this is safe>",
					})
					continue
				}
				scope := allScopes
				words := strings.Fields(rest)
				if len(words) > 0 && validScope(words[0]) {
					scope = words[0]
					words = words[1:]
				}
				if len(words) == 0 {
					pkg.badDirectives = append(pkg.badDirectives, Finding{
						Pos:      pos,
						PassName: "directive",
						Message:  "cafe:allow needs a reason: //cafe:allow [pass] <why this is safe>",
					})
					continue
				}
				lines := pkg.waived[filename]
				if lines == nil {
					lines = map[int]map[string]bool{}
					pkg.waived[filename] = lines
				}
				if lines[pos.Line] == nil {
					lines[pos.Line] = map[string]bool{}
				}
				lines[pos.Line][scope] = true
			}
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if isDirective(c.Text, hotpathDirective) {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						prog.hot[obj] = true
					}
				}
			}
		}
	}
}

// waivedAt reports whether pos lies on a //cafe:allow line whose scope
// covers pass — either an unscoped waiver or one naming pass itself.
func (pkg *Package) waivedAt(pos token.Position, pass string) bool {
	scopes := pkg.waived[pos.Filename][pos.Line]
	return scopes[allScopes] || scopes[pass]
}

// funcDecls visits every function declaration with a body in the
// package, in file order.
func (pkg *Package) funcDecls(fn func(*ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(fd)
			}
		}
	}
}

// isErrorType reports whether t is the error interface or a type that
// implements it (a concrete error being discarded is just as lost).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	errType := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	return types.Implements(t, errType)
}

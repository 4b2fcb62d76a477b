package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loading: the analyzer type-checks every package of the module itself
// (go/parser + go/types over the non-test sources), so passes see full
// type information and share object identity across packages — the
// hotpath pass needs to resolve a call in internal/postings to the
// *types.Func declared in internal/compress and ask whether that
// declaration carries the //cafe:hotpath directive. Imports outside the
// module (the standard library) are satisfied by the source importer,
// keeping the tool free of module dependencies.

// Package is one type-checked package of the module under analysis.
type Package struct {
	// Path is the import path ("nucleodb/internal/postings").
	Path string
	// Dir is the absolute directory the sources were read from.
	Dir string
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Pkg and Info are the go/types results for Files.
	Pkg  *types.Package
	Info *types.Info

	// waived maps filename → line → waived pass scopes ("" = every
	// pass) for //cafe:allow lines.
	waived map[string]map[int]map[string]bool
	// badDirectives are malformed cafe: directives, reported as findings.
	badDirectives []Finding
}

// LoadError records one package of the module that failed to parse or
// type-check. The rest of the module still loads and analyzes, but a
// non-empty Failed list means the analysis is incomplete and the lint
// driver must fail loudly rather than report a partial "clean".
type LoadError struct {
	// Path is the import path of the package that failed.
	Path string
	// Err is the parse or type-check failure.
	Err error
}

// Error implements error.
func (e LoadError) Error() string { return e.Err.Error() }

// Program is a fully loaded module: every package, one shared FileSet,
// and the module-wide directive facts the passes consult.
type Program struct {
	// Module is the module path from go.mod.
	Module string
	// Root is the absolute module root directory.
	Root string
	// Fset positions every file of every package (and of the
	// source-imported dependencies).
	Fset *token.FileSet
	// Packages is sorted by import path and holds only the packages
	// that type-checked; the rest are in Failed.
	Packages []*Package
	// Failed lists packages that did not load, sorted by import path.
	Failed []LoadError

	// hot records functions declared with a //cafe:hotpath directive.
	hot map[*types.Func]bool
}

// Hot reports whether fn was declared with a //cafe:hotpath directive.
func (p *Program) Hot(fn *types.Func) bool { return p.hot[fn] }

// InModule reports whether path names a package inside the module.
func (p *Program) InModule(path string) bool {
	return path == p.Module || strings.HasPrefix(path, p.Module+"/")
}

// loader memoizes per-package type checking and serves as the types
// importer for intra-module imports.
type loader struct {
	fset   *token.FileSet
	module string
	root   string
	cache  map[string]*Package
	failed map[string]error
	busy   map[string]bool
	src    types.ImporterFrom
}

// LoadModule locates the enclosing go.mod starting at dir and loads
// every package of that module.
func LoadModule(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod at or above %s", abs)
		}
		root = parent
	}
	module, err := moduleName(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	return Load(root, module)
}

// moduleName extracts the module path from a go.mod file.
func moduleName(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			name := strings.TrimSpace(rest)
			name = strings.Trim(name, `"`)
			if name != "" {
				return name, nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", path)
}

// Load type-checks every package under root, treating root as the
// module directory for import path module. Directories named testdata,
// hidden directories, and directories without non-test Go files are
// skipped.
func Load(root, module string) (*Program, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		module: module,
		root:   abs,
		cache:  map[string]*Package{},
		failed: map[string]error{},
		busy:   map[string]bool{},
		src:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	var paths []string
	err = filepath.WalkDir(abs, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != abs && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if !hasGoFiles(path) {
			return nil
		}
		rel, err := filepath.Rel(abs, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, module)
		} else {
			paths = append(paths, module+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: walk: %w", err)
	}
	prog := &Program{
		Module: module,
		Root:   abs,
		Fset:   fset,
		hot:    map[*types.Func]bool{},
	}
	// A package that fails to load must not abort the others: every
	// failure is recorded per package so the driver can name each one,
	// and the packages that do type-check are still analyzed.
	for _, p := range paths {
		pkg, err := l.load(p)
		if err != nil {
			prog.Failed = append(prog.Failed, LoadError{Path: p, Err: err})
			continue
		}
		prog.Packages = append(prog.Packages, pkg)
	}
	sort.Slice(prog.Packages, func(i, j int) bool { return prog.Packages[i].Path < prog.Packages[j].Path })
	sort.Slice(prog.Failed, func(i, j int) bool { return prog.Failed[i].Path < prog.Failed[j].Path })
	for _, pkg := range prog.Packages {
		collectDirectives(prog, pkg)
	}
	return prog, nil
}

// hasGoFiles reports whether dir contains at least one non-test .go file.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && isSourceFile(e.Name()) {
			return true
		}
	}
	return false
}

func isSourceFile(name string) bool {
	return strings.HasSuffix(name, ".go") &&
		!strings.HasSuffix(name, "_test.go") &&
		!strings.HasPrefix(name, ".") &&
		!strings.HasPrefix(name, "_")
}

// load parses and type-checks the package at import path, memoizing
// successes and failures alike (a broken package imported by several
// others is checked — and reported — once).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.cache[path]; ok {
		return pkg, nil
	}
	if err, ok := l.failed[path]; ok {
		return nil, err
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)
	pkg, err := l.doLoad(path)
	if err != nil {
		l.failed[path] = err
		return nil, err
	}
	l.cache[path] = pkg
	return pkg, nil
}

// doLoad is load without the memoization.
func (l *loader) doLoad(path string) (*Package, error) {
	dir := l.root
	if path != l.module {
		dir = filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.module+"/")))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isSourceFile(e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: %s: no Go source files in %s", path, dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-check %s: %w", path, err)
	}
	return &Package{
		Path:   path,
		Dir:    dir,
		Files:  files,
		Pkg:    tpkg,
		Info:   info,
		waived: map[string]map[int]map[string]bool{},
	}, nil
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal imports are
// loaded by this loader, everything else by the source importer.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.module || strings.HasPrefix(path, l.module+"/") {
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Pkg, nil
	}
	return l.src.ImportFrom(path, dir, mode)
}

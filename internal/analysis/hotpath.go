package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// HotpathPass enforces the allocation-free contract of functions
// declared with //cafe:hotpath. Inside an annotated function it flags:
//
//   - make, new, and pointer/map/slice composite literals
//   - append (waivable for amortised, reset-between-queries scratch)
//   - string ↔ []byte/[]rune conversions
//   - calls into package fmt, and print/println
//   - function literals (closure environments allocate)
//   - interface boxing at call arguments, assignments and returns
//   - calls to any named function or method that is not itself
//     annotated //cafe:hotpath, except intrinsics (len, cap, copy,
//     min, max, delete, clear) and the allowlisted packages
//
// The arguments of panic(...) are exempt from all checks: a panicking
// hot path is already off the fast path, and the panic messages are
// where the diagnostics live. Calls through function-typed values
// (parameters, fields) cannot be resolved statically and are allowed;
// the annotation on the enclosing function documents that its callers
// pass non-allocating callbacks.
type HotpathPass struct {
	// AllowCalleePackages are import paths hot code may call into
	// freely. Nil selects the default: math and math/bits, whose
	// functions compile to branch-free intrinsics, and encoding/binary,
	// whose fixed-width byte-order loads and stores compile to one move
	// (its reflective Read/Write box their arguments and are flagged as
	// boxing regardless).
	AllowCalleePackages []string
}

// Name implements Pass.
func (p *HotpathPass) Name() string { return "hotpath" }

func (p *HotpathPass) allowedPkg(path string) bool {
	pkgs := p.AllowCalleePackages
	if pkgs == nil {
		pkgs = []string{"math", "math/bits", "encoding/binary"}
	}
	for _, a := range pkgs {
		if path == a {
			return true
		}
	}
	return false
}

// allowedBuiltins never allocate and are always permitted in hot code.
var allowedBuiltins = map[string]bool{
	"len": true, "cap": true, "copy": true, "min": true, "max": true,
	"delete": true, "clear": true, "real": true, "imag": true, "recover": true,
}

// Run implements Pass.
func (p *HotpathPass) Run(prog *Program, pkg *Package) []Finding {
	var out []Finding
	report := func(node ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:      prog.Fset.Position(node.Pos()),
			PassName: p.Name(),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	pkg.funcDecls(func(fd *ast.FuncDecl) {
		obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
		if !ok || !prog.Hot(obj) {
			return
		}
		w := &hotWalker{prog: prog, pkg: pkg, pass: p, report: report, sig: obj.Type().(*types.Signature)}
		ast.Inspect(fd.Body, w.visit)
	})
	return out
}

// hotWalker checks one annotated function body.
type hotWalker struct {
	prog   *Program
	pkg    *Package
	pass   *HotpathPass
	report func(ast.Node, string, ...any)
	sig    *types.Signature // enclosing signature, for return boxing
}

func (w *hotWalker) visit(n ast.Node) bool {
	switch n := n.(type) {
	case *ast.CallExpr:
		return w.call(n)
	case *ast.CompositeLit:
		switch w.pkg.Info.TypeOf(n).Underlying().(type) {
		case *types.Map:
			w.report(n, "map literal allocates on the hot path")
		case *types.Slice:
			w.report(n, "slice literal allocates on the hot path")
		}
	case *ast.UnaryExpr:
		if n.Op.String() == "&" {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				w.report(n, "&composite literal heap-allocates on the hot path")
			}
		}
	case *ast.FuncLit:
		w.report(n, "function literal allocates its closure environment on the hot path")
		return false
	case *ast.AssignStmt:
		w.assignBoxing(n)
	case *ast.ReturnStmt:
		w.returnBoxing(n)
	}
	return true
}

// call checks one call expression and reports whether to descend into
// its children.
func (w *hotWalker) call(call *ast.CallExpr) bool {
	// Type conversions: T(x).
	if tv, ok := w.pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) == 1 && isStringBytesConversion(tv.Type, w.pkg.Info.TypeOf(call.Args[0])) {
			w.report(call, "string conversion allocates on the hot path")
		}
		return true
	}
	// Builtins.
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if obj, isBuiltin := w.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			name := obj.Name()
			switch {
			case name == "panic":
				// Cold by definition: a panicking hot path has already
				// left the fast path. Skip the argument subtree so the
				// diagnostic message construction is not flagged.
				return false
			case name == "append":
				w.report(call, "append may grow its backing array on the hot path")
			case name == "make":
				w.report(call, "make allocates on the hot path")
			case name == "new":
				w.report(call, "new allocates on the hot path")
			case allowedBuiltins[name]:
			default:
				w.report(call, "builtin %s is not allowed on the hot path", name)
			}
			return true
		}
	}
	callee := calleeFunc(w.pkg.Info, call)
	if callee == nil {
		// Dynamic call through a function value: statically unresolvable,
		// allowed — the annotated function's contract covers its callbacks.
		w.callBoxingDynamic(call)
		return true
	}
	w.callBoxing(call, callee)
	switch {
	case callee.Pkg() == nil:
		// error.Error and friends from the universe scope.
		w.report(call, "dynamic interface call to %s on the hot path", callee.Name())
	case isInterfaceMethod(callee):
		w.report(call, "dynamic interface call to %s on the hot path", callee.Name())
	case w.prog.InModule(callee.Pkg().Path()):
		if !w.prog.Hot(callee) {
			w.report(call, "calls %s, which is not annotated //cafe:hotpath", qualified(callee))
		}
	case callee.Pkg().Path() == "fmt":
		w.report(call, "fmt.%s allocates on the hot path", callee.Name())
	case w.pass.allowedPkg(callee.Pkg().Path()):
	default:
		w.report(call, "calls %s outside the hot-path allowlist", qualified(callee))
	}
	return true
}

// callBoxing flags concrete arguments passed to interface parameters.
func (w *hotWalker) callBoxing(call *ast.CallExpr, callee *types.Func) {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	w.boxingAgainst(call, sig)
}

// callBoxingDynamic applies the same check for calls through function
// values whose signature the type info still knows.
func (w *hotWalker) callBoxingDynamic(call *ast.CallExpr) {
	if sig, ok := w.pkg.Info.TypeOf(call.Fun).Underlying().(*types.Signature); ok {
		w.boxingAgainst(call, sig)
	}
}

func (w *hotWalker) boxingAgainst(call *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				if i == params.Len()-1 {
					pt = params.At(params.Len() - 1).Type()
				}
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		w.boxing(arg, pt)
	}
}

// assignBoxing flags concrete values assigned to interface-typed
// destinations.
func (w *hotWalker) assignBoxing(as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i := range as.Lhs {
		w.boxing(as.Rhs[i], w.pkg.Info.TypeOf(as.Lhs[i]))
	}
}

// returnBoxing flags concrete values returned as interfaces.
func (w *hotWalker) returnBoxing(ret *ast.ReturnStmt) {
	results := w.sig.Results()
	if len(ret.Results) != results.Len() {
		return
	}
	for i, r := range ret.Results {
		w.boxing(r, results.At(i).Type())
	}
}

// boxing reports expr when its concrete value would be converted to the
// interface type dst.
func (w *hotWalker) boxing(expr ast.Expr, dst types.Type) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	tv, ok := w.pkg.Info.Types[expr]
	if !ok || tv.Type == nil || types.IsInterface(tv.Type) {
		return
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	w.report(expr, "boxes %s into %s on the hot path", tv.Type.String(), dst.String())
}

// calleeFunc resolves a call to the *types.Func it invokes, or nil for
// dynamic calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil // method value through a func-typed field
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// isInterfaceMethod reports whether fn is declared on an interface.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// isStringBytesConversion reports whether converting from to dst moves
// between string and []byte/[]rune, which copies the data.
func isStringBytesConversion(dst, src types.Type) bool {
	if src == nil {
		return false
	}
	return isStringish(dst) && isByteRuneSlice(src) || isByteRuneSlice(dst) && isStringish(src)
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	e, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (e.Kind() == types.Byte || e.Kind() == types.Uint8 || e.Kind() == types.Rune || e.Kind() == types.Int32)
}

func qualified(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), sig.Recv().Type().String(), fn.Name())
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

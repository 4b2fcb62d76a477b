package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// CtxPass enforces the context-propagation contracts PR 3 introduced
// when cancellation was threaded through the coarse/fine pipeline:
//
//  1. A function that receives a context.Context must not call a
//     context-free sibling of a context-aware API — calling
//     SearchCodesWithStats where SearchCodesWithStatsContext exists
//     severs the cancellation chain, and the server's per-request deadline
//     silently stops applying below that call. Siblings are found by
//     name: for a callee F, a function or
//     method FContext on the same package or receiver whose first
//     parameter is a context.Context.
//  2. Inside the serving packages (ForbidBackgroundIn), calls to
//     context.Background() and context.TODO() are forbidden: a fresh
//     root context detaches the work under it from the request that
//     asked for it. The documented context-free wrappers (Search
//     delegating to SearchWithStatsContext with no deadline) carry a
//     //cafe:allow ctx waiver stating exactly that.
type CtxPass struct {
	// ForbidBackgroundIn lists the import paths in which
	// context.Background()/TODO() may not appear outside waived lines.
	ForbidBackgroundIn []string
}

// Name implements Pass.
func (p *CtxPass) Name() string { return "ctx" }

func (p *CtxPass) forbidsBackground(path string) bool {
	for _, want := range p.ForbidBackgroundIn {
		if path == want {
			return true
		}
	}
	return false
}

// Run implements Pass.
func (p *CtxPass) Run(prog *Program, pkg *Package) []Finding {
	var out []Finding
	report := func(node ast.Node, format string, args ...any) {
		out = append(out, Finding{
			Pos:      prog.Fset.Position(node.Pos()),
			PassName: p.Name(),
			Message:  fmt.Sprintf(format, args...),
		})
	}
	forbid := p.forbidsBackground(pkg.Path)
	pkg.funcDecls(func(fd *ast.FuncDecl) {
		hasCtx := false
		if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
			hasCtx = signatureTakesContext(obj.Type().(*types.Signature))
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pkg.Info, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if forbid && fn.Pkg().Path() == "context" && (fn.Name() == "Background" || fn.Name() == "TODO") {
				report(call, "context.%s() detaches this call tree from the request context; propagate a caller's ctx", fn.Name())
			}
			if hasCtx {
				if sibling := contextSibling(fn); sibling != nil {
					report(call, "calls %s from a context-aware function; use %s and pass the context",
						calleeLabel(fn), sibling.Name())
				}
			}
			return true
		})
	})
	return out
}

// contextSibling returns the FContext counterpart of fn — a function
// or method on the same receiver/package named fn.Name()+"Context"
// whose first parameter is a context.Context — or nil when fn has no
// such sibling (including when fn itself already takes a context).
func contextSibling(fn *types.Func) *types.Func {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || signatureTakesContext(sig) {
		return nil
	}
	name := fn.Name() + "Context"
	var obj types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ = types.LookupFieldOrMethod(recv.Type(), true, fn.Pkg(), name)
	} else {
		obj = fn.Pkg().Scope().Lookup(name)
	}
	sib, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sibSig, ok := sib.Type().(*types.Signature)
	if !ok || !signatureTakesContext(sibSig) {
		return nil
	}
	return sib
}

// signatureTakesContext reports whether sig's first parameter is a
// context.Context.
func signatureTakesContext(sig *types.Signature) bool {
	return sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// calleeLabel renders fn the way a caller would write it: (*DB).Search
// for methods (the receiver's package is obvious at the call site),
// path-qualified for package functions.
func calleeLabel(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fmt.Sprintf("(%s).%s",
			types.TypeString(sig.Recv().Type(), types.RelativeTo(fn.Pkg())), fn.Name())
	}
	return qualified(fn)
}

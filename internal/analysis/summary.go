package analysis

// Per-function summaries give the pooled-buffer passes transitive
// interprocedural flow: every function of the module is analyzed with
// its pointer-bearing parameters seeded as tracked facts, and the
// dataflow records which parameter bits reach a return (the helper
// hands its argument back), which reach a retention sink (the helper
// stores, sends, or boxes its argument somewhere that outlives the
// call), and whether the function returns pooled memory it obtained
// itself.
//
// Since PR 9 the computation runs over the module call graph
// (callgraph.go): strongly connected components are processed
// callees-first, so when a function is summarized every summary it
// consults is already final — a pooled value laundered through any
// chain of helpers stays visible. Within a recursive component the
// analysis iterates to fixpoint, bounded by summaryDepth rounds
// (facts are monotone bit sets, so the bound is a cost cap, not a
// correctness device).

import (
	"go/ast"
	"go/types"
)

// funcSummary is what the pooled-buffer analyses know about calling a
// function, without re-analyzing its body at every call site.
type funcSummary struct {
	// returnsArg has bit i set when parameter i (or memory reachable
	// from it) may flow into a result.
	returnsArg uint64
	// retainsArg has bit i set when parameter i may be retained past
	// the call: stored into a field, global, or container, sent on a
	// channel, captured by an unjoined goroutine, or passed into an
	// interface the analysis cannot see through.
	retainsArg uint64
	// returnsPooled marks a function whose results may carry pooled
	// memory the function obtained itself (Pool.Get, a //cafe:pooled
	// source) without being annotated //cafe:pooled.
	returnsPooled bool
}

// computeSummaries analyzes every function declaration of the module
// in summary mode over the call graph, and also returns the
// declaration map used to resolve named goroutine payloads. SCCs are
// processed callees-first; recursive components iterate until their
// summaries stop changing or summaryDepth rounds have run.
func computeSummaries(prog *Program) (map[*types.Func]*funcSummary, map[*types.Func]goDecl) {
	cg := prog.callGraph()
	sums := map[*types.Func]*funcSummary{}
	summarize := func(fn *types.Func) bool {
		if prog.PooledFunc(fn) {
			// Annotated sources need no summary: call sites read the
			// directive itself.
			return false
		}
		d := cg.decls[fn]
		t := &poolTracker{
			prog:        prog,
			pkg:         d.pkg,
			decls:       cg.decls,
			sums:        sums,
			summaryMode: true,
			cur:         &funcSummary{},
			seen:        map[string]bool{},
		}
		init := FlowState{}
		for i, id := range paramIdents(d.fd) {
			if i >= 64 {
				break
			}
			if obj := d.pkg.Info.Defs[id]; obj != nil && hasPointers(obj.Type()) {
				init[obj] = Fact{Params: 1 << uint(i)}
			}
		}
		t.enclBody = d.fd.Body
		t.analyzeBody(d.fd.Body, init)
		old := sums[fn]
		if t.cur.returnsArg == 0 && t.cur.retainsArg == 0 && !t.cur.returnsPooled {
			return false // zero summary: stays absent, absent stays absent
		}
		if old != nil && *old == *t.cur {
			return false
		}
		sums[fn] = t.cur
		return true
	}
	for _, scc := range cg.sccs {
		if len(scc) == 1 && !cg.recursive(scc[0]) {
			summarize(scc[0])
			continue
		}
		for round := 0; round < summaryDepth; round++ {
			changed := false
			for _, fn := range scc {
				if summarize(fn) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return sums, cg.decls
}

// paramIdents lists the declared parameter names of fd in signature
// order (the receiver is not a parameter: summary bits line up with
// call-site argument positions).
func paramIdents(fd *ast.FuncDecl) []*ast.Ident {
	var out []*ast.Ident
	if fd.Type.Params == nil {
		return nil
	}
	for _, fld := range fd.Type.Params.List {
		out = append(out, fld.Names...)
	}
	return out
}

// paramBit maps call-site argument index i to the summary bit of the
// parameter it binds — variadic tails all share the last parameter's
// bit.
func paramBit(sig *types.Signature, i int) uint64 {
	if sig != nil {
		if n := sig.Params().Len(); n > 0 && i >= n {
			i = n - 1
		}
	}
	if i >= 64 {
		return 0
	}
	return 1 << uint(i)
}

// hasPointers reports whether values of type t can carry references
// to shared memory — only those can alias pooled backing. Recursion
// through structs terminates because cycles in Go types necessarily
// pass through a pointer, slice, map, or channel, all of which return
// without recursing.
func hasPointers(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if hasPointers(u.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return hasPointers(u.Elem())
	}
	// Basics (strings included — immutable, so an alias cannot be
	// scribbled on) and everything else carry no mutable references.
	return false
}

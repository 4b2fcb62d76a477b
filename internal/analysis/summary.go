package analysis

// Per-function summaries give the flow analysis transitive
// interprocedural reach: every function of the module is analyzed once
// (per round, inside recursive components) with its pointer-bearing
// parameters and receiver seeded as tracked facts, and the one walk
// records every summary bit at once — which parameters reach a result
// or a retention sink, which are stored through, and which taints the
// function hands out on its own.
//
// The computation runs over the module call graph (callgraph.go):
// strongly connected components are processed callees-first, so when a
// function is summarized every summary it consults outside its own
// component is already final — a value laundered through any chain of
// helpers stays visible. Within a recursive component the analysis
// iterates to fixpoint, bounded by summaryDepth rounds (facts are
// monotone bit sets, so the bound is a cost cap, not a correctness
// device).

import (
	"go/ast"
	"go/types"
)

// summary is what the flow analysis knows about calling a function
// without re-analyzing its body at every call site.
type summary struct {
	// returnsArg has bit i set when parameter i (or memory it holds)
	// may flow into a result; retainsArg when it may be retained past
	// the call: stored into a field, global, or container, sent on a
	// channel, captured by an unjoined goroutine, or passed into an
	// interface the analysis cannot see through. Both read Fact.Params.
	returnsArg uint64
	retainsArg uint64
	// returnsPooled marks a function whose results may carry pooled
	// memory the function obtained itself (Pool.Get, a //cafe:pooled
	// source) without being annotated //cafe:pooled.
	returnsPooled bool

	// mutatesArg has bit i set when the function may store through
	// memory reachable from parameter i, directly or transitively;
	// returnsMutArg when that memory may flow into a result. Both read
	// Fact.MutParams; the Recv variants are the receiver analogues.
	mutatesArg    uint64
	returnsMutArg uint64
	mutatesRecv   bool
	returnsRecv   bool
	// taintMask has bit i set when result i may be a published
	// //cafe:frozen value the function obtained itself; snapMask has
	// bit i set when result i may come from an atomic snapshot load.
	// Results past 16 share the top bit.
	taintMask uint16
	snapMask  uint16

	// swaps marks a swap point: the function, or any function it may
	// call, performs an atomic Store/Swap/CompareAndSwap.
	swaps bool
}

// resultBit maps result index i to its mask bit.
func resultBit(i int) uint16 {
	if i > 15 {
		i = 15
	}
	return 1 << uint(i)
}

// computeSummaries summarizes every function declaration of the module
// over the call graph. SCCs are processed callees-first; a component
// swaps when any member swaps directly or calls a swapping function,
// since every member reaches every other. Recursive components then
// iterate until their summaries stop changing or summaryDepth rounds
// have run.
func computeSummaries(prog *Program, cg *callGraph) map[*types.Func]*summary {
	sums := map[*types.Func]*summary{}
	summarize := func(fn *types.Func, swaps bool) bool {
		d := cg.decls[fn]
		t := &tracker{prog: prog, pkg: d.pkg, sums: sums, cur: &summary{swaps: swaps}}
		init := FlowState{}
		for i, id := range paramIdents(d.fd) {
			if i >= 64 {
				break
			}
			if obj := d.pkg.Info.Defs[id]; obj != nil && hasPointers(obj.Type()) {
				init[obj] = Fact{Params: 1 << uint(i), MutParams: 1 << uint(i)}
			}
		}
		if d.fd.Recv != nil && len(d.fd.Recv.List) > 0 && len(d.fd.Recv.List[0].Names) > 0 {
			if obj := d.pkg.Info.Defs[d.fd.Recv.List[0].Names[0]]; obj != nil && hasPointers(obj.Type()) {
				init[obj] = Fact{Recv: true}
			}
		}
		t.analyzeDecl(fn, d.fd, init)
		old := sums[fn]
		if *t.cur == (summary{}) {
			return false // zero summary: stays absent, absent stays absent
		}
		if old != nil && *old == *t.cur {
			return false
		}
		sums[fn] = t.cur
		return true
	}
	for _, scc := range cg.sccs {
		swaps := false
		for _, fn := range scc {
			swaps = swaps || directSwap(cg.decls[fn])
			for _, callee := range cg.callees[fn] {
				if s := sums[callee]; s != nil && s.swaps {
					swaps = true
				}
			}
		}
		if len(scc) == 1 && !cg.recursive(scc[0]) {
			summarize(scc[0], swaps)
			continue
		}
		if swaps {
			for _, fn := range scc {
				sums[fn] = &summary{swaps: true}
			}
		}
		for round := 0; round < summaryDepth; round++ {
			changed := false
			for _, fn := range scc {
				if summarize(fn, swaps) {
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}
	return sums
}

// directSwap reports whether d calls Store, Swap, or CompareAndSwap on
// an atomic.Pointer or atomic.Value anywhere in its body — nested
// literals and go statements included, the call graph's attribution.
func directSwap(d goDecl) bool {
	found := false
	ast.Inspect(d.fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch atomicViewMethod(calleeFunc(d.pkg.Info, call)) {
			case "Store", "Swap", "CompareAndSwap":
				found = true
			}
		}
		return !found
	})
	return found
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

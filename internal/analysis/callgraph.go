package analysis

// The module call graph. Nodes are the function declarations of the
// module; edges are the static calls the type checker can resolve
// (direct calls and method calls with a concrete receiver — calls
// through function values and interface methods stay opaque, the same
// stance the flow analysis takes). Calls made inside a nested function
// literal or a go statement are attributed to the enclosing
// declaration: for the may-analyses built on the graph (what a call
// can eventually mutate or swap) that attribution is the conservative
// direction.
//
// Summaries computed over the graph (summary.go) are transitive:
// strongly connected components are processed callees-first (the
// order Tarjan's algorithm emits them), so an acyclic chain of any
// length composes exactly, and only the fixpoint within a recursive
// SCC is bounded, at summaryDepth rounds. The bound exists to keep the
// lint's cost proportional to the module, not to the depth of
// pathological recursion.

import (
	"go/ast"
	"go/types"
)

// summaryDepth is k: the round bound of the summary fixpoint inside a
// recursive component, so the maximum number of call hops a summary
// fact propagates through a cycle.
const summaryDepth = 8

// goDecl pairs a function declaration with the package whose type info
// describes it.
type goDecl struct {
	fd  *ast.FuncDecl
	pkg *Package
}

// callGraph is the module-wide static call graph.
type callGraph struct {
	// decls maps every module function to its declaration.
	decls map[*types.Func]goDecl
	// callees lists the module functions each function may call, in
	// first-call-site order, deduplicated.
	callees map[*types.Func][]*types.Func
	// sccs groups the functions into strongly connected components in
	// callees-first (reverse topological) order: when component i is
	// processed, every function reachable from it outside the
	// component lives in some component j < i.
	sccs [][]*types.Func
	// sccOf maps a function to its index in sccs.
	sccOf map[*types.Func]int
}

// callGraph returns the module call graph, building it on first use.
func (p *Program) callGraph() *callGraph {
	if p.cg == nil {
		p.cg = buildCallGraph(p)
	}
	return p.cg
}

// buildCallGraph constructs the call graph of prog.
func buildCallGraph(prog *Program) *callGraph {
	cg := &callGraph{
		decls:   map[*types.Func]goDecl{},
		callees: map[*types.Func][]*types.Func{},
		sccOf:   map[*types.Func]int{},
	}
	var order []*types.Func // deterministic node order: package, file, decl
	for _, pkg := range prog.Packages {
		pkg.funcDecls(func(fd *ast.FuncDecl) {
			if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				cg.decls[fn] = goDecl{fd: fd, pkg: pkg}
				order = append(order, fn)
			}
		})
	}
	for _, fn := range order {
		d := cg.decls[fn]
		seen := map[*types.Func]bool{}
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(d.pkg.Info, call)
			if callee == nil || seen[callee] {
				return true
			}
			if _, inModule := cg.decls[callee]; inModule {
				seen[callee] = true
				cg.callees[fn] = append(cg.callees[fn], callee)
			}
			return true
		})
	}
	cg.tarjan(order)
	return cg
}

// tarjan computes the strongly connected components of the graph,
// iteratively (module call chains can be deep). Components are
// appended in the order the algorithm completes them, which is
// callees-first for a caller→callee edge direction.
func (cg *callGraph) tarjan(order []*types.Func) {
	index := map[*types.Func]int{}
	low := map[*types.Func]int{}
	onStack := map[*types.Func]bool{}
	var stack []*types.Func
	next := 0

	type frame struct {
		fn *types.Func
		ci int // next callee index to visit
	}
	for _, root := range order {
		if _, visited := index[root]; visited {
			continue
		}
		work := []frame{{fn: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ci < len(cg.callees[f.fn]) {
				callee := cg.callees[f.fn][f.ci]
				f.ci++
				if _, visited := index[callee]; !visited {
					index[callee], low[callee] = next, next
					next++
					stack = append(stack, callee)
					onStack[callee] = true
					work = append(work, frame{fn: callee})
				} else if onStack[callee] && low[f.fn] > index[callee] {
					low[f.fn] = index[callee]
				}
				continue
			}
			fn := f.fn
			work = work[:len(work)-1]
			if len(work) > 0 && low[work[len(work)-1].fn] > low[fn] {
				low[work[len(work)-1].fn] = low[fn]
			}
			if low[fn] == index[fn] {
				var scc []*types.Func
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top] = false
					scc = append(scc, top)
					if top == fn {
						break
					}
				}
				for _, m := range scc {
					cg.sccOf[m] = len(cg.sccs)
				}
				cg.sccs = append(cg.sccs, scc)
			}
		}
	}
}

// recursive reports whether fn can reach itself: it shares a
// component with another function, or calls itself directly.
func (cg *callGraph) recursive(fn *types.Func) bool {
	if len(cg.sccs[cg.sccOf[fn]]) > 1 {
		return true
	}
	for _, callee := range cg.callees[fn] {
		if callee == fn {
			return true
		}
	}
	return false
}

package analysis

// The mutation dataflow shared by the frozen and snapshot passes: a
// flow-sensitive taint analysis over the CFG + forward-dataflow engine
// of cfg.go/dataflow.go, with transitive interprocedural summaries
// computed callees-first over the module call graph (callgraph.go).
//
// Two taints ride the same lattice:
//
//   - Frozen: a value of a //cafe:frozen type that may already be
//     published — read from a package-level variable, or returned by a
//     function whose summary says it hands out published values.
//     Mutating memory reachable from a Frozen value (field store,
//     element store, store through a pointer, or a call to a helper
//     whose summary mutates the corresponding parameter or receiver)
//     is a frozen-pass violation.
//   - Snap: a value loaded from an atomic.Pointer/atomic.Value (the
//     snapshot-swap pattern the facade is built on), or memory reached
//     from one. Stores through Snap values are snapshot-pass
//     violations, and a Snap value still live after a call that
//     transitively performs an atomic Store/Swap (a swap point) turns
//     Stale: any later use is flagged — the reader kept a snapshot
//     across the swap it was supposed to be isolated from. The value
//     handed to the swap call itself is exempt (it IS the new
//     snapshot).
//
// Freshness is the absence of taint: values constructed in the current
// function (composite literals, new, zero-valued vars, shallow copies
// via *p) carry no taint, so constructor-style initialization needs no
// special casing. Mutations through a function's own parameters or
// receiver are not reported in the function itself — they set the
// function's mutatesArg/mutatesRecv summary bits, and the violation is
// reported at call sites that pass a tainted value, RacerD-style. A
// helper that only ever initializes fresh values therefore stays
// silent everywhere.
//
// Deliberate scope limits (documented in the README):
//   - Struct composite literals launder taint: a wrapper struct built
//     around snapshot memory is a new value, and mutations reaching
//     through it into the snapshot are invisible. Slice/array/map
//     literals and append keep their elements' taint.
//   - A shallow copy (out := *g) clears taint entirely, including for
//     pointer-bearing fields that still alias the original backing;
//     reallocating before mutating such fields is the copy-on-write
//     contract the Segment code follows.
//   - Out-of-module callees are assumed not to mutate their arguments
//     (the stdlib does not scribble on the caller's structs).
//   - Provenance through untracked containers (map of segments filled
//     elsewhere) is invisible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// mutSummary is what the mutation analyses know about calling a
// function without re-analyzing its body.
type mutSummary struct {
	// mutatesArg has bit i set when the function may store through
	// memory reachable from parameter i, directly or transitively.
	mutatesArg uint64
	// mutatesRecv marks a method that may store through its receiver.
	mutatesRecv bool
	// returnsArg has bit i set when parameter i may flow into a
	// result; returnsRecv is the receiver analogue.
	returnsArg  uint64
	returnsRecv bool
	// taintMask has bit i set when result i may be a published
	// //cafe:frozen value the function obtained itself; snapMask has
	// bit i set when result i may come from an atomic snapshot load.
	// Results past 16 share the top bit.
	taintMask uint16
	snapMask  uint16
}

// resultBit maps result index i to its mask bit.
func resultBit(i int) uint16 {
	if i > 15 {
		i = 15
	}
	return 1 << uint(i)
}

// MutShared caches the mutation dataflow so the frozen and snapshot
// passes run it once per package between them. The zero value is
// ready; DefaultPasses hands one instance to both passes.
type MutShared struct {
	once    bool
	sums    map[*types.Func]*mutSummary
	swaps   map[*types.Func]token.Pos
	results map[*Package]*mutResults
}

type mutResults struct {
	frozen   []Finding
	snapshot []Finding
}

func (s *MutShared) analyze(prog *Program, pkg *Package) *mutResults {
	if !s.once {
		s.once = true
		cg := prog.callGraph()
		s.swaps = transClosureBool(cg.callees, directSwaps(cg))
		s.sums = computeMutSummaries(prog, cg, s.swaps)
		s.results = map[*Package]*mutResults{}
	}
	if r := s.results[pkg]; r != nil {
		return r
	}
	r := &mutResults{}
	t := &mutTracker{
		prog:     prog,
		pkg:      pkg,
		sums:     s.sums,
		swaps:    s.swaps,
		frozen:   &r.frozen,
		snapshot: &r.snapshot,
		seen:     map[string]bool{},
	}
	pkg.funcDecls(func(fd *ast.FuncDecl) { t.analyzeBody(fd.Body, FlowState{}) })
	s.results[pkg] = r
	return r
}

// directSwaps finds the functions that directly call Store, Swap, or
// CompareAndSwap on an atomic.Pointer or atomic.Value — the swap
// points the snapshot pass anchors staleness to.
func directSwaps(cg *callGraph) map[*types.Func]token.Pos {
	out := map[*types.Func]token.Pos{}
	for fn, d := range cg.decls {
		pos := token.NoPos
		ast.Inspect(d.fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch atomicViewMethod(calleeFunc(d.pkg.Info, call)) {
			case "Store", "Swap", "CompareAndSwap":
				if pos == token.NoPos || call.Pos() < pos {
					pos = call.Pos()
				}
			}
			return true
		})
		if pos != token.NoPos {
			out[fn] = pos
		}
	}
	return out
}

// atomicViewMethod returns the method name when fn is a method of
// sync/atomic's Pointer or Value wrappers, else "".
func atomicViewMethod(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.Underlying().(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return ""
	}
	if name := named.Obj().Name(); name != "Pointer" && name != "Value" {
		return ""
	}
	return fn.Name()
}

// computeMutSummaries runs the mutation dataflow in summary mode over
// every module function, callees-first with a bounded fixpoint inside
// recursive components — the same discipline as computeSummaries.
func computeMutSummaries(prog *Program, cg *callGraph, swaps map[*types.Func]token.Pos) map[*types.Func]*mutSummary {
	sums := map[*types.Func]*mutSummary{}
	summarize := func(fn *types.Func) bool {
		d := cg.decls[fn]
		t := &mutTracker{
			prog:        prog,
			pkg:         d.pkg,
			sums:        sums,
			swaps:       swaps,
			summaryMode: true,
			cur:         &mutSummary{},
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
		if d.fd.Recv != nil && len(d.fd.Recv.List) > 0 && len(d.fd.Recv.List[0].Names) > 0 {
			if obj := d.pkg.Info.Defs[d.fd.Recv.List[0].Names[0]]; obj != nil && hasPointers(obj.Type()) {
				init[obj] = Fact{Recv: true}
			}
		}
		t.analyzeBody(d.fd.Body, init)
		old := sums[fn]
		if *t.cur == (mutSummary{}) {
			return false
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
	return sums
}

// mutTracker runs the mutation dataflow over one package, either
// collecting findings (reporting mode) or summary bits (summary mode).
type mutTracker struct {
	prog  *Program
	pkg   *Package
	sums  map[*types.Func]*mutSummary
	swaps map[*types.Func]token.Pos

	summaryMode bool
	cur         *mutSummary

	frozen   *[]Finding
	snapshot *[]Finding
	seen     map[string]bool

	report bool
	depth  int
}

func (t *mutTracker) info() *types.Info { return t.pkg.Info }

// analyzeBody runs the dataflow to fixpoint over body, then replays
// every block with its stable in-state to fire the checks.
func (t *mutTracker) analyzeBody(body *ast.BlockStmt, init FlowState) {
	if t.depth > 8 {
		return
	}
	t.depth++
	g := BuildCFG(body)
	saved := t.report
	t.report = false
	in := ForwardFlow(g, init, func(st FlowState, n ast.Node) { t.transfer(st, n) })
	t.report = true
	for _, blk := range g.Blocks {
		st := in[blk]
		if st == nil {
			st = FlowState{}
		} else {
			st = st.clone()
		}
		for _, n := range blk.Nodes {
			t.transfer(st, n)
		}
	}
	t.report = saved
	t.depth--
}

// transfer is the dataflow transfer function for one CFG node.
func (t *mutTracker) transfer(st FlowState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(st, n)
	case *ast.DeclStmt:
		t.declStmt(st, n)
	case *ast.RangeStmt:
		t.scan(st, n.X)
		t.rangeBind(st, n)
	case *ast.IncDecStmt:
		t.scan(st, n.X)
		t.checkStore(st, n.X)
	case *ast.SendStmt:
		t.scan(st, n.Chan)
		t.scan(st, n.Value)
	case *ast.ReturnStmt:
		for i, e := range n.Results {
			t.scan(st, e)
			t.ret(st, e, i)
		}
	case *ast.GoStmt:
		t.goStmt(st, n)
	case *ast.DeferStmt:
		t.scan(st, n.Call)
		t.callFact(st, n.Call)
	case *ast.ExprStmt:
		t.scan(st, n.X)
	case *ast.LabeledStmt:
		t.transfer(st, n.Stmt)
	default:
		if e, ok := n.(ast.Expr); ok {
			t.scan(st, e)
		}
	}
}

// scan walks an expression tree for calls, nested literal bodies, and
// uses of stale snapshot values.
func (t *mutTracker) scan(st FlowState, n ast.Node) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			if t.report {
				t.analyzeBody(x.Body, t.litSeed(st, x, nil))
			}
			return false
		case *ast.CallExpr:
			t.callFact(st, x)
		case *ast.Ident:
			if obj := t.info().Uses[x]; obj != nil {
				if f, ok := st[obj]; ok && f.Stale {
					t.emit(t.snapshot, "snapshot", x.Pos(),
						"snapshot value retained across a swap point and used afterwards; re-load it or prove it safe with //cafe:allow snapshot")
				}
			}
		}
		return true
	})
}

// assign implements = and := plus the compound forms.
func (t *mutTracker) assign(st FlowState, a *ast.AssignStmt) {
	for _, e := range a.Rhs {
		t.scan(st, e)
	}
	for _, l := range a.Lhs {
		t.checkStore(st, l)
	}
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		return
	}
	if len(a.Lhs) == len(a.Rhs) {
		facts := make([]Fact, len(a.Rhs))
		for i, e := range a.Rhs {
			facts[i] = t.rhsFact(st, e)
		}
		for i, l := range a.Lhs {
			t.bind(st, l, facts[i])
		}
		return
	}
	if len(a.Rhs) != 1 {
		return
	}
	switch r := unparen(a.Rhs[0]).(type) {
	case *ast.CallExpr:
		flow, sum := t.callFlow(st, r)
		for i, l := range a.Lhs {
			t.bind(st, l, t.resultFact(flow, sum, t.info().TypeOf(l), i))
		}
	case *ast.TypeAssertExpr:
		t.bind(st, a.Lhs[0], t.factOf(st, r.X))
		for _, l := range a.Lhs[1:] {
			t.bind(st, l, Fact{})
		}
	default:
		f := t.factOf(st, a.Rhs[0])
		t.bind(st, a.Lhs[0], f)
		for _, l := range a.Lhs[1:] {
			t.bind(st, l, Fact{})
		}
	}
}

// rhsFact evaluates one right-hand side for binding. A shallow copy
// through a pointer (out := *g) produces a fresh value: its taint is
// cleared (the copy-on-write limit documented above).
func (t *mutTracker) rhsFact(st FlowState, e ast.Expr) Fact {
	if star, ok := unparen(e).(*ast.StarExpr); ok {
		if pt, ok := t.info().TypeOf(star.X).(*types.Pointer); ok {
			if _, isStruct := pt.Elem().Underlying().(*types.Struct); isStruct {
				return Fact{}
			}
		}
	}
	return t.factOf(st, e)
}

// bind stores a fact into a plain identifier target; other targets
// were already checked by checkStore and track no state.
func (t *mutTracker) bind(st FlowState, lhs ast.Expr, f Fact) {
	id, ok := unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return
	}
	if obj := t.objOf(id); obj != nil {
		if v, ok := obj.(*types.Var); ok && isGlobal(v) {
			return // globals re-taint at every read; no state to keep
		}
		st.set(obj, f) // strong update
	}
}

// declStmt handles var declarations with initializers.
func (t *mutTracker) declStmt(st FlowState, d *ast.DeclStmt) {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		for _, v := range vs.Values {
			t.scan(st, v)
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok {
				flow, sum := t.callFlow(st, call)
				for i, name := range vs.Names {
					if obj := t.info().Defs[name]; obj != nil {
						st.set(obj, t.resultFact(flow, sum, obj.Type(), i))
					}
				}
			}
			continue
		}
		for i, name := range vs.Names {
			var f Fact
			if i < len(vs.Values) {
				f = t.rhsFact(st, vs.Values[i])
			}
			if obj := t.info().Defs[name]; obj != nil {
				st.set(obj, f)
			}
		}
	}
}

// rangeBind binds the key/value variables of a range statement.
func (t *mutTracker) rangeBind(st FlowState, n *ast.RangeStmt) {
	f := t.factOf(st, n.X)
	bind := func(e ast.Expr, ft Fact) {
		if e == nil {
			return
		}
		id, ok := unparen(e).(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		if obj := t.objOf(id); obj != nil {
			st.set(obj, ft)
		}
	}
	bind(n.Key, Fact{})
	vf := Fact{}
	if f.some() {
		if et := elemType(t.info().TypeOf(n.X)); et != nil && hasPointers(et) {
			vf = f
			vf.Elems = false // the element is the taint itself
		}
	}
	bind(n.Value, vf)
}

// ret records summary bits for one return operand.
func (t *mutTracker) ret(st FlowState, e ast.Expr, i int) {
	if !t.report || !t.summaryMode {
		return
	}
	f := t.factOf(st, e)
	t.cur.returnsArg |= f.Params
	if f.Recv {
		t.cur.returnsRecv = true
	}
	if f.Frozen {
		t.cur.taintMask |= resultBit(i)
	}
	if f.Snap {
		t.cur.snapMask |= resultBit(i)
	}
}

// goStmt analyzes a goroutine payload with the spawning state: a
// goroutine mutating a captured snapshot or frozen value is just as
// wrong as the spawning function doing it.
func (t *mutTracker) goStmt(st FlowState, g *ast.GoStmt) {
	for _, arg := range g.Call.Args {
		t.scan(st, arg)
	}
	if lit, ok := unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if t.report {
			t.analyzeBody(lit.Body, t.litSeed(st, lit, g.Call.Args))
		}
	} else {
		t.scan(st, g.Call.Fun)
	}
}

// litSeed builds the initial state for a function literal body: the
// outer state plus the literal's parameters bound to the call
// arguments' facts when invoked in place.
func (t *mutTracker) litSeed(st FlowState, lit *ast.FuncLit, args []ast.Expr) FlowState {
	seed := st.clone()
	var params []*ast.Ident
	if lit.Type.Params != nil {
		for _, fld := range lit.Type.Params.List {
			params = append(params, fld.Names...)
		}
	}
	for i, id := range params {
		var f Fact
		if i < len(args) {
			f = t.factOf(st, args[i])
		}
		if obj := t.info().Defs[id]; obj != nil {
			seed.set(obj, f)
		}
	}
	return seed
}

// checkStore fires the mutation checks for one assignment target: the
// target's base chain is walked root-first, and the first tainted base
// reports (snapshot taint wins over frozen). Plain identifier targets
// are rebinds, not mutations.
func (t *mutTracker) checkStore(st FlowState, lhs ast.Expr) {
	bases := mutationBases(lhs)
	for i := len(bases) - 1; i >= 0; i-- {
		// A struct/array/basic VALUE is a local copy: a store within it
		// cannot reach shared memory. Any path to shared memory goes
		// through a pointer-, slice-, or map-typed base, which stays in
		// the chain and is checked on its own.
		if bt := t.info().TypeOf(bases[i]); bt != nil {
			switch bt.Underlying().(type) {
			case *types.Struct, *types.Array, *types.Basic:
				continue
			}
		}
		f := t.factOf(st, bases[i])
		if !f.some() {
			continue
		}
		if f.Elems {
			// Fresh spine: storing into the container is fine; element
			// mutation reports at the element's own base.
			continue
		}
		if t.summaryMode {
			if t.report {
				t.cur.mutatesArg |= f.Params
				if f.Recv {
					t.cur.mutatesRecv = true
				}
			}
			continue
		}
		if f.Snap {
			t.emit(t.snapshot, "snapshot", lhs.Pos(),
				"store through an atomic snapshot; loaded snapshots are read-only views — build a new value aside and swap it in")
			return
		}
		if f.Frozen {
			t.emit(t.frozen, "frozen", lhs.Pos(),
				"store into a //cafe:frozen value after publish; frozen values are immutable once published — build a copy instead")
			return
		}
	}
}

// mutationBases lists the base expressions a store through lhs could
// mutate: every prefix reached by stripping selectors, indexes, and
// dereferences. A bare identifier has no base — assigning to it
// rebinds the variable without touching shared memory.
func mutationBases(lhs ast.Expr) []ast.Expr {
	var out []ast.Expr
	e := unparen(lhs)
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			e = unparen(x.X)
		case *ast.IndexExpr:
			e = unparen(x.X)
		case *ast.StarExpr:
			e = unparen(x.X)
		default:
			return out
		}
		out = append(out, e)
	}
}

// factOf evaluates the fact of an expression under the current state.
func (t *mutTracker) factOf(st FlowState, e ast.Expr) Fact {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := t.objOf(e); obj != nil {
			if v, ok := obj.(*types.Var); ok && isGlobal(v) && t.prog.FrozenType(v.Type()) {
				return Fact{Frozen: true}
			}
			return st[obj]
		}
	case *ast.CallExpr:
		return t.callFact(st, e)
	case *ast.TypeAssertExpr:
		return t.factOf(st, e.X)
	case *ast.SelectorExpr:
		if fv := t.fieldVarOf(e); fv != nil {
			base := t.factOf(st, e.X)
			if base.some() && hasPointers(fv.Type()) {
				return base
			}
			return Fact{}
		}
		// Package-qualified global: pkg.Var of a frozen type.
		if v, ok := t.info().Uses[e.Sel].(*types.Var); ok && isGlobal(v) && t.prog.FrozenType(v.Type()) {
			return Fact{Frozen: true}
		}
	case *ast.IndexExpr:
		base := t.factOf(st, e.X)
		if base.some() {
			if lt := t.info().TypeOf(e); lt != nil && hasPointers(lt) {
				// Reading an element of a fresh-spined container yields
				// the element itself: fully tainted again.
				base.Elems = false
				return base
			}
		}
	case *ast.SliceExpr:
		return t.factOf(st, e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.factOf(st, e.X)
		}
	case *ast.StarExpr:
		return t.factOf(st, e.X)
	case *ast.CompositeLit:
		// Slice, array, and map literals keep their elements' taint —
		// mutating an element of the aggregate mutates the source.
		// Struct literals are new values and launder it (limit).
		if lt := t.info().TypeOf(e); lt != nil {
			if _, isStruct := lt.Underlying().(*types.Struct); isStruct {
				return Fact{}
			}
		}
		var f Fact
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			f = mergeFact(f, t.factOf(st, v))
		}
		return f
	}
	return Fact{}
}

// callFact evaluates a call used as a single expression.
func (t *mutTracker) callFact(st FlowState, call *ast.CallExpr) Fact {
	flow, sum := t.callFlow(st, call)
	return t.resultFact(flow, sum, t.info().TypeOf(call), 0)
}

// resultFact adapts a call's flow fact to one result: taints
// propagated through a summary (returnsArg/returnsRecv) only survive
// into results that can hold frozen memory — a wrapper object built
// around the snapshot is a new value, not the snapshot. Direct
// sources (an atomic Load, a conversion, append) arrive with a nil
// summary and keep their taint unconditionally; then the callee's
// per-result masks add the taints it introduces on its own.
func (t *mutTracker) resultFact(flow Fact, sum *mutSummary, resType types.Type, i int) Fact {
	f := flow
	if sum != nil && (resType == nil || !t.carriesFrozen(resType)) {
		f.Frozen, f.Snap, f.Stale, f.Elems = false, false, false, false
	}
	if resType != nil && !hasPointers(resType) {
		return Fact{}
	}
	if sum != nil {
		if sum.taintMask&resultBit(i) != 0 {
			f.Frozen = true
		}
		if sum.snapMask&resultBit(i) != 0 {
			f.Snap = true
		}
	}
	return f
}

// carriesFrozen reports whether a value of type t can hold memory of a
// //cafe:frozen type: the type itself, or an element/field reachable
// without crossing a struct boundary the analysis treats as a fresh
// wrapper.
func (t *mutTracker) carriesFrozen(tt types.Type) bool {
	if t.prog.FrozenType(tt) {
		return true
	}
	switch u := tt.Underlying().(type) {
	case *types.Pointer:
		return t.carriesFrozen(u.Elem())
	case *types.Slice:
		return t.carriesFrozen(u.Elem())
	case *types.Array:
		return t.carriesFrozen(u.Elem())
	case *types.Map:
		return t.carriesFrozen(u.Elem())
	}
	return false
}

// callFlow evaluates a call: argument and receiver mutation checks,
// swap-point staleness, and the flow fact its results inherit.
func (t *mutTracker) callFlow(st FlowState, call *ast.CallExpr) (Fact, *mutSummary) {
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := t.info().Uses[id].(*types.Builtin); ok {
			return t.builtinFlow(st, b.Name(), call), nil
		}
	}
	// Conversions keep the operand's backing.
	if tv, ok := t.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return t.factOf(st, call.Args[0]), nil
	}
	callee := calleeFunc(t.info(), call)
	if callee == nil {
		return Fact{}, nil
	}
	switch atomicViewMethod(callee) {
	case "Load":
		return Fact{Snap: true}, nil
	case "Store", "CompareAndSwap":
		t.markStale(st, call)
		return Fact{}, nil
	case "Swap":
		t.markStale(st, call)
		return Fact{Snap: true}, nil
	}
	var sum *mutSummary
	if t.sums != nil {
		sum = t.sums[callee]
	}
	sig, _ := callee.Type().(*types.Signature)
	var flow Fact
	for i, arg := range call.Args {
		af := t.factOf(st, arg)
		if !af.some() {
			continue
		}
		bit := paramBit(sig, i)
		if sum != nil && sum.returnsArg&bit != 0 {
			flow = mergeFact(flow, af)
		}
		if sum != nil && sum.mutatesArg&bit != 0 {
			t.mutationSink(af, arg.Pos(), fmt.Sprintf("passed to %s, which mutates it", callee.Name()))
		}
	}
	if sig != nil && sig.Recv() != nil {
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			rf := t.factOf(st, sel.X)
			if rf.some() {
				if sum != nil && sum.returnsRecv {
					flow = mergeFact(flow, rf)
				}
				if sum != nil && sum.mutatesRecv {
					t.mutationSink(rf, call.Pos(), fmt.Sprintf("%s mutates its receiver", callee.Name()))
				}
			}
		}
	}
	if _, isSwap := t.swaps[callee]; isSwap {
		t.markStale(st, call)
	}
	return flow, sum
}

// mutationSink reports a tainted value reaching a mutating callee, or
// records the summary bits in summary mode.
func (t *mutTracker) mutationSink(f Fact, pos token.Pos, how string) {
	if !t.report {
		return
	}
	if t.summaryMode {
		t.cur.mutatesArg |= f.Params
		if f.Recv {
			t.cur.mutatesRecv = true
		}
		return
	}
	if f.Snap {
		t.emit(t.snapshot, "snapshot", pos, how+"; the value is a read-only snapshot view")
		return
	}
	if f.Frozen {
		t.emit(t.frozen, "frozen", pos, how+"; the value is a published //cafe:frozen value")
	}
}

// markStale marks every live snapshot fact stale at a swap point,
// except the values handed to the swap call itself — they are the new
// snapshot, not a stale view of the old one.
func (t *mutTracker) markStale(st FlowState, call *ast.CallExpr) {
	exempt := map[types.Object]bool{}
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := t.info().Uses[id]; obj != nil {
					exempt[obj] = true
				}
			}
			return true
		})
	}
	for obj, f := range st {
		if f.Snap && !f.Stale && !exempt[obj] {
			f.Stale = true
			st[obj] = f
		}
	}
}

// builtinFlow evaluates builtin calls: append keeps the base's and the
// pointer-bearing elements' taint; everything else (copy, len, make,
// clear) yields nothing — copy is the blessed de-aliasing move.
func (t *mutTracker) builtinFlow(st FlowState, name string, call *ast.CallExpr) Fact {
	if name != "append" || len(call.Args) == 0 {
		return Fact{}
	}
	f := t.factOf(st, call.Args[0])
	for i, arg := range call.Args[1:] {
		af := t.factOf(st, arg)
		if !af.some() {
			continue
		}
		et := t.info().TypeOf(arg)
		if call.Ellipsis.IsValid() && i == len(call.Args[1:])-1 {
			et = elemType(et)
		}
		if et != nil && hasPointers(et) {
			// Appended values taint the result's ELEMENTS; the spine is
			// only shared when the base slice already was (the join in
			// mergeFact drops the weakening in that case).
			af.Elems = true
			f = mergeFact(f, af)
		}
	}
	return f
}

func (t *mutTracker) emit(dst *[]Finding, pass string, pos token.Pos, msg string) {
	if !t.report || t.summaryMode {
		return
	}
	p := t.prog.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s:%s", p.Filename, p.Line, pass, msg)
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	*dst = append(*dst, Finding{Pos: p, PassName: pass, Message: msg})
}

// objOf resolves an identifier to its object, use or definition.
func (t *mutTracker) objOf(id *ast.Ident) types.Object {
	if obj := t.info().Uses[id]; obj != nil {
		return obj
	}
	return t.info().Defs[id]
}

// fieldVarOf resolves a selector to the struct field it denotes.
func (t *mutTracker) fieldVarOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := t.info().Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

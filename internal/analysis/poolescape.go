package analysis

// The poolescape pass: flow-sensitive tracking of pooled scratch
// memory. A value is "pooled" when it comes from (*sync.Pool).Get,
// from a function declared //cafe:pooled (the Searcher scratch
// getters), or from a struct field declared //cafe:pooled. Pooled
// memory is owned by its pool: it must not outlive the call that
// obtained it — returned to the caller, stored into a struct field,
// global, or foreign container, sent on a channel, captured by a
// goroutine the caller does not join, or passed to something that
// retains it — unless it is copied first or the receiving site is
// itself part of the pool's machinery.
//
// The companion alias pass (alias.go) reports the sharper, sneakier
// variant: an append or slice expression whose BASE is pooled creates
// a view that shares the pool's backing array without being the
// pooled object — exactly the shape of the PR-5 both-strands merge
// bug, where append(forward, reverse...) handed callers memory that
// the next query would scribble over. Both passes run on the same
// dataflow (shared via poolShared), and differ only in which
// component of the tracked fact reaches a sink: Pooled → poolescape,
// Alias sites → alias.
//
// Known limits, all deliberate (documented in the README):
//   - Calls through function values are opaque: no retention check,
//     no result fact. The hotpath pass has the same stance.
//   - Flow through a method receiver is not tracked (topKHeap holding
//     candBuf backing is annotated at the Searcher field instead).
//   - Stores through plain pointers (*p = v) and type-switch bindings
//     are not tracked.
//   - Summaries compose transitively over the module call graph
//     (callgraph.go), callees-first with a summaryDepth-bounded
//     fixpoint inside recursive components; only a laundering chain
//     longer than summaryDepth hops through a cycle is invisible.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// PoolEscapePass reports pooled scratch that escapes its owning call.
type PoolEscapePass struct {
	Shared *PoolShared
}

// Name implements Pass.
func (p *PoolEscapePass) Name() string { return "poolescape" }

// Run implements Pass.
func (p *PoolEscapePass) Run(prog *Program, pkg *Package) []Finding {
	if p.Shared == nil {
		p.Shared = &PoolShared{}
	}
	return p.Shared.analyze(prog, pkg).escape
}

// PoolShared caches the pooled-buffer dataflow so the poolescape and
// alias passes run it once per package between them. The zero value
// is ready to use; DefaultPasses hands one instance to both passes.
type PoolShared struct {
	once    bool
	sums    map[*types.Func]*funcSummary
	decls   map[*types.Func]goDecl
	results map[*Package]*poolResults
}

type poolResults struct {
	escape []Finding
	alias  []Finding
}

func (s *PoolShared) analyze(prog *Program, pkg *Package) *poolResults {
	if !s.once {
		s.once = true
		s.sums, s.decls = computeSummaries(prog)
		s.results = map[*Package]*poolResults{}
	}
	if r := s.results[pkg]; r != nil {
		return r
	}
	r := &poolResults{}
	t := &poolTracker{
		prog:   prog,
		pkg:    pkg,
		sums:   s.sums,
		decls:  s.decls,
		escape: &r.escape,
		alias:  &r.alias,
		seen:   map[string]bool{},
	}
	pkg.funcDecls(t.analyzeDecl)
	s.results[pkg] = r
	return r
}

// poolTracker runs the pooled-buffer dataflow over one package,
// either collecting findings (reporting mode) or parameter-flow bits
// (summary mode, driven by computeSummaries).
type poolTracker struct {
	prog  *Program
	pkg   *Package
	sums  map[*types.Func]*funcSummary
	decls map[*types.Func]goDecl

	summaryMode bool
	cur         *funcSummary // summary being accumulated

	escape *[]Finding
	alias  *[]Finding
	seen   map[string]bool

	// report is true during the post-fixpoint walk, when sinks fire;
	// the fixpoint iterations themselves are pure transfers.
	report bool
	// enclBody is the enclosing declaration's body — goroutine join
	// checks look for the Wait() there, even from nested literals.
	enclBody *ast.BlockStmt
	depth    int
}

func (t *poolTracker) info() *types.Info { return t.pkg.Info }

// analyzeDecl analyzes one function declaration in reporting mode.
// Functions annotated //cafe:pooled are the pool's own machinery —
// they hand out pooled memory by design and are exempt.
func (t *poolTracker) analyzeDecl(fd *ast.FuncDecl) {
	if fn, ok := t.info().Defs[fd.Name].(*types.Func); ok && t.prog.PooledFunc(fn) {
		return
	}
	t.enclBody = fd.Body
	t.analyzeBody(fd.Body, FlowState{})
}

// analyzeBody runs the dataflow to fixpoint over body, then replays
// every block once with its stable in-state to fire sinks (and, for
// summary mode, to record flow bits).
func (t *poolTracker) analyzeBody(body *ast.BlockStmt, init FlowState) {
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
func (t *poolTracker) transfer(st FlowState, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.assign(st, n)
	case *ast.DeclStmt:
		t.declStmt(st, n)
	case *ast.RangeStmt:
		t.scan(st, n.X)
		t.rangeBind(st, n)
	case *ast.SendStmt:
		t.scan(st, n.Chan)
		t.scan(st, n.Value)
		t.sinkFact(t.factOf(st, n.Value), n.Pos(), "sent on a channel")
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			t.scan(st, e)
			t.ret(st, e, n.Pos())
		}
	case *ast.GoStmt:
		t.goStmt(st, n)
	case *ast.DeferStmt:
		t.scan(st, n.Call)
		t.callFact(st, n.Call)
	case *ast.ExprStmt:
		t.scan(st, n.X)
	case *ast.IncDecStmt:
		// no pointer flow
	case *ast.LabeledStmt:
		t.transfer(st, n.Stmt)
	default:
		if e, ok := n.(ast.Expr); ok {
			t.scan(st, e)
		}
	}
}

// scan walks an expression tree for side effects the structural rules
// miss: call retention checks and function-literal bodies. Literal
// bodies are analyzed once, here, seeded with the current state; scan
// never descends into them.
func (t *poolTracker) scan(st FlowState, n ast.Node) {
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
		}
		return true
	})
}

// assign implements = and := (compound assignments move no pointers).
// All right-hand sides are evaluated before any store, matching Go's
// tuple-assignment semantics.
func (t *poolTracker) assign(st FlowState, a *ast.AssignStmt) {
	for _, e := range a.Rhs {
		t.scan(st, e)
	}
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		return
	}
	if len(a.Lhs) == len(a.Rhs) {
		facts := make([]Fact, len(a.Rhs))
		for i, e := range a.Rhs {
			facts[i] = t.factOf(st, e)
		}
		for i, l := range a.Lhs {
			t.store(st, l, facts[i])
		}
		return
	}
	if len(a.Rhs) != 1 {
		return
	}
	switch r := unparen(a.Rhs[0]).(type) {
	case *ast.CallExpr:
		f := t.callFact(st, r)
		for _, l := range a.Lhs {
			lt := t.info().TypeOf(l)
			if lt == nil || isErrorType(lt) || !hasPointers(lt) {
				t.store(st, l, Fact{})
			} else {
				t.store(st, l, f)
			}
		}
	case *ast.TypeAssertExpr:
		// v, ok := x.(T)
		t.store(st, a.Lhs[0], t.factOf(st, r.X))
		for _, l := range a.Lhs[1:] {
			t.store(st, l, Fact{})
		}
	default:
		// v, ok := m[k] / <-ch: the comma-ok forms.
		f := t.factOf(st, a.Rhs[0])
		t.store(st, a.Lhs[0], f)
		for _, l := range a.Lhs[1:] {
			t.store(st, l, Fact{})
		}
	}
}

// declStmt handles var declarations with initializers.
func (t *poolTracker) declStmt(st FlowState, d *ast.DeclStmt) {
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
			// var a, b = f()
			if call, ok := unparen(vs.Values[0]).(*ast.CallExpr); ok {
				f := t.callFact(st, call)
				for _, name := range vs.Names {
					if obj := t.info().Defs[name]; obj != nil {
						lt := obj.Type()
						if isErrorType(lt) || !hasPointers(lt) {
							st.set(obj, Fact{})
						} else {
							st.set(obj, f)
						}
					}
				}
			}
			continue
		}
		for i, name := range vs.Names {
			var f Fact
			if i < len(vs.Values) {
				f = t.factOf(st, vs.Values[i])
			}
			if obj := t.info().Defs[name]; obj != nil {
				st.set(obj, f)
			}
		}
	}
}

// store writes a fact through an assignment target, firing retention
// sinks for targets that outlive the frame.
func (t *poolTracker) store(st FlowState, lhs ast.Expr, f Fact) {
	switch l := unparen(lhs).(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := t.objOf(l)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok && isGlobal(v) {
			t.sinkFact(f, lhs.Pos(), "stored in a package-level variable")
			return
		}
		st.set(obj, f) // strong update
	case *ast.SelectorExpr:
		if fv := t.fieldVarOf(l); fv != nil && t.prog.PooledField(fv) {
			return // refilling a pooled field is the pool's own business
		}
		t.sinkFact(f, lhs.Pos(), "stored into a struct field, outliving the call")
	case *ast.IndexExpr:
		// p[i] = v: writing into a local container keeps the fact
		// contained; writing into pooled backing is a refill;
		// anything else retains v beyond the frame.
		if id, ok := unparen(l.X).(*ast.Ident); ok {
			if obj := t.objOf(id); obj != nil {
				if v, ok := obj.(*types.Var); ok && !isGlobal(v) && !v.IsField() {
					st.set(obj, mergeFact(st[obj], f))
					return
				}
			}
		}
		if base := t.factOf(st, l.X); base.Pooled {
			return
		}
		if sel, ok := unparen(l.X).(*ast.SelectorExpr); ok {
			if fv := t.fieldVarOf(sel); fv != nil && t.prog.PooledField(fv) {
				return
			}
		}
		t.sinkFact(f, lhs.Pos(), "stored into a container that outlives the call")
	case *ast.StarExpr:
		// *p = v: not tracked (documented limit).
	}
}

// ret handles one return operand.
func (t *poolTracker) ret(st FlowState, e ast.Expr, pos token.Pos) {
	f := t.factOf(st, e)
	if !t.report || !f.some() {
		return
	}
	if t.summaryMode {
		t.cur.returnsArg |= f.Params
		// A pure param-derived alias (rs = rs[:limit]; return rs) is
		// already carried by returnsArg; only facts rooted in a real
		// pool source make the result pooled for every caller.
		if f.Pooled || (len(f.Alias) > 0 && f.Params == 0) {
			t.cur.returnsPooled = true
		}
		return
	}
	t.sinkFact(f, pos, "returned to the caller")
}

// goStmt handles goroutine launches: any tracked fact reaching the
// payload — as an argument or a captured variable — escapes unless
// the spawning function provably joins the goroutine (the payload
// counts down a sync.WaitGroup and the enclosing declaration calls
// Wait on one).
func (t *poolTracker) goStmt(st FlowState, g *ast.GoStmt) {
	var carried Fact
	for _, arg := range g.Call.Args {
		t.scan(st, arg)
		carried = mergeFact(carried, t.factOf(st, arg))
	}
	lit, isLit := unparen(g.Call.Fun).(*ast.FuncLit)
	if isLit {
		carried = mergeFact(carried, t.capturedFacts(st, lit))
	} else {
		t.scan(st, g.Call.Fun)
	}
	if carried.some() && !t.joinedGo(g, lit) {
		t.sinkFact(carried, g.Pos(), "captured by a goroutine the caller does not join")
	}
	if isLit && t.report {
		t.analyzeBody(lit.Body, t.litSeed(st, lit, g.Call.Args))
	}
}

// capturedFacts merges the facts of every outer variable the literal
// body references.
func (t *poolTracker) capturedFacts(st FlowState, lit *ast.FuncLit) Fact {
	var f Fact
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := t.info().Uses[id]; obj != nil {
				if ff, ok := st[obj]; ok {
					f = mergeFact(f, ff)
				}
			}
		}
		return true
	})
	return f
}

// litSeed builds the initial state for a function literal body: the
// outer state (captures keep their facts — same objects) plus the
// literal's parameters bound to the call arguments' facts, or to
// nothing when the literal is not invoked here.
func (t *poolTracker) litSeed(st FlowState, lit *ast.FuncLit, args []ast.Expr) FlowState {
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

// joinedGo reports whether the goroutine's payload counts down a
// WaitGroup and the enclosing declaration waits on one — the shape
// that bounds the goroutine's lifetime to the call. The Wait may live
// anywhere in the declaration, including a sibling drain goroutine
// (the batch worker-pool shape).
func (t *poolTracker) joinedGo(g *ast.GoStmt, lit *ast.FuncLit) bool {
	var payload *ast.BlockStmt
	payloadInfo := t.info()
	if lit != nil {
		payload = lit.Body
	} else if fn := calleeFunc(t.info(), g.Call); fn != nil {
		if d, ok := t.decls[fn]; ok {
			payload = d.fd.Body
			payloadInfo = d.pkg.Info
		}
	}
	if payload == nil || t.enclBody == nil {
		return false
	}
	// Add counts as a countdown too: Add(-1) is one.
	return waitGroupCall(payloadInfo, payload, "Done", "Add") && waitGroupCall(t.info(), t.enclBody, "Wait")
}

// waitGroupCall reports whether body calls one of the named methods
// on a sync.WaitGroup anywhere, nested literals included.
func waitGroupCall(info *types.Info, body *ast.BlockStmt, methods ...string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || !slices.Contains(methods, sel.Sel.Name) {
			return true
		}
		if isWaitGroup(info.TypeOf(sel.X)) {
			found = true
		}
		return !found
	})
	return found
}

// isWaitGroup reports whether t (possibly a pointer) is
// sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// rangeBind binds the key/value variables of a range statement. Only
// pointer-bearing element values inherit the operand's fact; map keys
// are not tracked.
func (t *poolTracker) rangeBind(st FlowState, n *ast.RangeStmt) {
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
		}
	}
	bind(n.Value, vf)
}

// factOf evaluates the fact of an expression under the current state.
func (t *poolTracker) factOf(st FlowState, e ast.Expr) Fact {
	switch e := unparen(e).(type) {
	case *ast.Ident:
		if obj := t.objOf(e); obj != nil {
			return st[obj]
		}
	case *ast.CallExpr:
		return t.callFact(st, e)
	case *ast.TypeAssertExpr:
		return t.factOf(st, e.X)
	case *ast.SelectorExpr:
		if fv := t.fieldVarOf(e); fv != nil {
			if t.prog.PooledField(fv) {
				return Fact{Pooled: true}
			}
			base := t.factOf(st, e.X)
			if base.some() && hasPointers(fv.Type()) {
				return base
			}
			return Fact{}
		}
	case *ast.IndexExpr:
		base := t.factOf(st, e.X)
		if base.some() {
			if lt := t.info().TypeOf(e); lt != nil && hasPointers(lt) {
				return base
			}
		}
	case *ast.SliceExpr:
		base := t.factOf(st, e.X)
		if base.some() {
			return base.withAlias(e.Pos())
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.factOf(st, e.X)
		}
	case *ast.StarExpr:
		return t.factOf(st, e.X)
	case *ast.CompositeLit:
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

// callFact evaluates a call: the fact of its result, plus retention
// checks on its arguments (fired only during the reporting walk).
func (t *poolTracker) callFact(st FlowState, call *ast.CallExpr) Fact {
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := t.info().Uses[id].(*types.Builtin); ok {
			return t.builtinFact(st, b.Name(), call)
		}
	}
	// Conversions: string<->[]byte copies the data; any other
	// conversion of a tracked value keeps its backing.
	if tv, ok := t.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		f := t.factOf(st, call.Args[0])
		if !f.some() {
			return Fact{}
		}
		dst := t.info().TypeOf(call)
		src := t.info().TypeOf(call.Args[0])
		if dst == nil || !hasPointers(dst) || isStringBytesConversion(dst, src) {
			return Fact{}
		}
		return f
	}
	callee := calleeFunc(t.info(), call)
	if callee == nil {
		// Dynamic call through a function value: opaque (limit).
		return Fact{}
	}
	if isPoolMethod(callee, "Put") {
		return Fact{} // Pool.Put reclaims; the opposite of an escape
	}
	if isPoolMethod(callee, "Get") {
		return Fact{Pooled: true}
	}
	var out Fact
	if t.prog.PooledFunc(callee) {
		out.Pooled = true
	}
	// Summaries are consulted in both modes: in summary mode the map
	// holds the callees-first partial results of the SCC fixpoint, so
	// flow through any chain of helpers composes transitively.
	var sum *funcSummary
	if t.sums != nil {
		sum = t.sums[callee]
		if sum != nil && sum.returnsPooled {
			out.Pooled = true
		}
	}
	sig, _ := callee.Type().(*types.Signature)
	inModule := callee.Pkg() != nil && t.prog.InModule(callee.Pkg().Path())
	for i, arg := range call.Args {
		af := t.factOf(st, arg)
		if !af.some() {
			continue
		}
		bit := paramBit(sig, i)
		if sum != nil && sum.returnsArg&bit != 0 {
			out = mergeFact(out, af)
		}
		switch {
		case sum != nil && sum.retainsArg&bit != 0:
			t.sinkFact(af, arg.Pos(), fmt.Sprintf("passed to %s, which retains its argument", callee.Name()))
		case isInterfaceMethod(callee):
			t.sinkFact(af, arg.Pos(), fmt.Sprintf("passed to interface method %s, which may retain it", callee.Name()))
		case !inModule && boxesParam(sig, i):
			t.sinkFact(af, arg.Pos(), fmt.Sprintf("boxed into an interface argument of %s", qualified(callee)))
		}
	}
	if out.some() {
		if res := callResultType(sig); res != nil && !hasPointers(res) {
			return Fact{}
		}
	}
	return out
}

// builtinFact evaluates builtin calls. append on tracked backing
// creates an alias view recorded at the call; pointer-bearing
// elements appended INTO a slice make the result share their
// referents. Everything else (copy, len, make, clear, ...) yields no
// fact — copy in particular is the blessed way to un-pool a value.
func (t *poolTracker) builtinFact(st FlowState, name string, call *ast.CallExpr) Fact {
	switch name {
	case "append":
		if len(call.Args) == 0 {
			return Fact{}
		}
		var f Fact
		if base := t.factOf(st, call.Args[0]); base.some() {
			f = base.withAlias(call.Pos())
		}
		// Appended elements are copied by value: only pointer-bearing
		// elements make the result share the source's backing —
		// append(fresh, pooledInts...) is a clean copy, while
		// append(batch, pooledSlice) keeps the reference.
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
				f = mergeFact(f, af)
			}
		}
		return f
	}
	return Fact{}
}

// sinkFact fires a retention sink: findings in reporting mode,
// parameter bits in summary mode, nothing during fixpoint.
func (t *poolTracker) sinkFact(f Fact, pos token.Pos, how string) {
	if !t.report || !f.some() {
		return
	}
	if t.summaryMode {
		t.cur.retainsArg |= f.Params
		return
	}
	if f.Pooled {
		t.emit(t.escape, "poolescape", pos, "pooled scratch "+how+"; copy it first or scope it with //cafe:pooled")
	}
	for _, site := range f.Alias {
		t.emit(t.alias, "alias", site, "append/slice view of pooled backing "+how+"; copy into a fresh buffer instead")
	}
}

func (t *poolTracker) emit(dst *[]Finding, pass string, pos token.Pos, msg string) {
	p := t.prog.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s:%s", p.Filename, p.Line, pass, msg)
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	*dst = append(*dst, Finding{Pos: p, PassName: pass, Message: msg})
}

// objOf resolves an identifier to its object, use or definition.
func (t *poolTracker) objOf(id *ast.Ident) types.Object {
	if obj := t.info().Uses[id]; obj != nil {
		return obj
	}
	return t.info().Defs[id]
}

// fieldVarOf resolves a selector to the struct field it denotes, or
// nil for methods and package-qualified names.
func (t *poolTracker) fieldVarOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := t.info().Selections[sel]; ok {
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
	}
	return nil
}

// isGlobal reports whether v is a package-level variable.
func isGlobal(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// isPoolMethod reports whether fn is (*sync.Pool).<name>.
func isPoolMethod(fn *types.Func, name string) bool {
	if fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.Underlying().(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	return ok && named.Obj().Name() == "Pool"
}

// boxesParam reports whether argument i of sig lands in an
// interface-typed parameter (boxing hides the value from the
// analysis, so callees outside the module count as retention).
func boxesParam(sig *types.Signature, i int) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	if params.Len() == 0 {
		return false
	}
	if i >= params.Len() {
		i = params.Len() - 1
	}
	pt := params.At(i).Type()
	if sig.Variadic() && i == params.Len()-1 {
		if sl, ok := pt.Underlying().(*types.Slice); ok {
			pt = sl.Elem()
		}
	}
	if _, generic := pt.(*types.TypeParam); generic {
		// A type parameter is instantiated with the argument's own type
		// (slices.Sort(xs) sorts a []T in place); nothing is boxed.
		return false
	}
	return types.IsInterface(pt)
}

// callResultType returns the single result type of sig, or nil when
// there is none or more than one (multi-result facts are gated
// per-variable at the assignment).
func callResultType(sig *types.Signature) types.Type {
	if sig == nil || sig.Results().Len() != 1 {
		return nil
	}
	return sig.Results().At(0).Type()
}

// elemType returns the element type a range/index produces from t.
func elemType(t types.Type) types.Type {
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return u.Elem()
	case *types.Array:
		return u.Elem()
	case *types.Map:
		return u.Elem()
	case *types.Chan:
		return u.Elem()
	case *types.Pointer:
		if arr, ok := u.Elem().Underlying().(*types.Array); ok {
			return arr.Elem()
		}
	}
	return nil
}

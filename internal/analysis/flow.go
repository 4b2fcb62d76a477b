package analysis

// The flow analysis behind the four flow passes: one flow-sensitive
// walk per function over the CFG + forward-dataflow engine of
// cfg.go/dataflow.go, with transitive summaries (summary.go) computed
// callees-first over the module call graph (callgraph.go). The walk
// tracks one Fact per variable and fires every sink as it goes; each
// pass selects its own findings from the one cached result.
//
// Sources and sinks, by pass:
//
//   - poolescape: a value is Pooled when it comes from
//     (*sync.Pool).Get, from a function declared //cafe:pooled (the
//     Searcher scratch getters), or from a struct field declared
//     //cafe:pooled. Pooled memory must not outlive the call that
//     obtained it — returned to the caller, stored into a struct
//     field, global, or foreign container, sent on a channel, captured
//     by a goroutine the caller does not join, or passed to something
//     that retains it — unless it is copied first or the receiving
//     site is itself part of the pool's machinery (//cafe:pooled
//     functions and fields are exempt).
//   - alias: an append or slice expression whose base is pooled creates
//     a view that shares the pool's backing without being the pooled
//     object — the PR-5 both-strands merge bug, where
//     append(forward, reverse...) handed callers memory the next query
//     would scribble over. The view's Alias sites reach the same sinks
//     as poolescape; findings anchor at the append/slice site, where
//     the copy belongs.
//   - frozen: a value of a //cafe:frozen type that may already be
//     published — read from a package-level variable, or returned by a
//     function whose summary says it hands out published values — is
//     Frozen. A store into memory reachable from it, or a call handing
//     it to a helper whose summary mutates that parameter or receiver,
//     is a violation.
//   - snapshot: a value loaded from an atomic.Pointer/atomic.Value, or
//     memory reached from one, is Snap. Stores through it are
//     violations, and a Snap value still live after a call that
//     transitively performs an atomic Store/Swap (a swap point) turns
//     Stale: any later use is flagged. The value handed to the swap
//     call itself is exempt — it IS the new snapshot.
//
// Freshness is the absence of taint: values constructed in the current
// function carry no mutation taint, so constructor-style
// initialization needs no special casing. Stores through a function's
// own parameters or receiver are not reported in the function itself —
// they set its summary bits, and the violation is reported at call
// sites that pass a tainted value, RacerD-style.
//
// Known limits, all deliberate (documented in the README):
//   - Calls through function values are opaque: no retention check,
//     no result fact. The hotpath pass has the same stance.
//   - Pooled flow through a method receiver is not tracked (topKHeap
//     holding candBuf backing is annotated at the Searcher field).
//   - Pool sinks ignore stores through plain pointers (*p = v), and
//     type-switch bindings are not tracked.
//   - Struct composite literals and shallow copies (out := *g) launder
//     mutation taint: a wrapper built around snapshot memory is a new
//     value, and a copy's pointer-bearing fields still alias the
//     original — reallocating before mutating them is the
//     copy-on-write contract the Segment code follows. Both keep the
//     pool components: the wrapper still holds the pool's memory.
//   - Out-of-module callees are assumed not to mutate their arguments.
//   - Provenance through untracked containers (a map of segments filled
//     elsewhere) is invisible.
//   - Inside a recursive component a fact travels at most summaryDepth
//     hops.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// PoolEscapePass reports pooled scratch that escapes its owning call.
type PoolEscapePass struct{}

// AliasPass reports append/slice views of pooled backing that escape.
type AliasPass struct{}

// FrozenPass reports post-publish mutation of //cafe:frozen values.
type FrozenPass struct{}

// SnapshotPass reports writes through and stale retention of
// atomically loaded snapshot values.
type SnapshotPass struct{}

// Name implements Pass.
func (*PoolEscapePass) Name() string { return "poolescape" }

// Name implements Pass.
func (*AliasPass) Name() string { return "alias" }

// Name implements Pass.
func (*FrozenPass) Name() string { return "frozen" }

// Name implements Pass.
func (*SnapshotPass) Name() string { return "snapshot" }

// Run implements Pass.
func (p *PoolEscapePass) Run(prog *Program, pkg *Package) []Finding {
	return prog.flowFindings(pkg)[p.Name()]
}

// Run implements Pass.
func (p *AliasPass) Run(prog *Program, pkg *Package) []Finding {
	return prog.flowFindings(pkg)[p.Name()]
}

// Run implements Pass.
func (p *FrozenPass) Run(prog *Program, pkg *Package) []Finding {
	return prog.flowFindings(pkg)[p.Name()]
}

// Run implements Pass.
func (p *SnapshotPass) Run(prog *Program, pkg *Package) []Finding {
	return prog.flowFindings(pkg)[p.Name()]
}

// flowResult is the cached engine run: the module's summaries, and the
// findings of each analyzed package keyed by pass name.
type flowResult struct {
	sums     map[*types.Func]*summary
	findings map[*Package]map[string][]Finding
}

// flowFindings returns pkg's flow findings by pass name, computing the
// module summaries on first use and each package's reporting walk on
// its first request.
func (p *Program) flowFindings(pkg *Package) map[string][]Finding {
	if p.flow == nil {
		p.flow = &flowResult{
			sums:     computeSummaries(p, p.callGraph()),
			findings: map[*Package]map[string][]Finding{},
		}
	}
	if r, ok := p.flow.findings[pkg]; ok {
		return r
	}
	t := &tracker{prog: p, pkg: pkg, sums: p.flow.sums, found: map[string][]Finding{}, seen: map[string]bool{}}
	pkg.funcDecls(func(fd *ast.FuncDecl) {
		fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
		t.analyzeDecl(fn, fd, FlowState{})
	})
	p.flow.findings[pkg] = t.found
	return t.found
}

// tracker runs the flow walk over the functions of one package, either
// collecting findings (reporting mode) or summary bits (summary mode,
// driven by computeSummaries).
type tracker struct {
	prog *Program
	pkg  *Package
	sums map[*types.Func]*summary

	// cur is the summary being accumulated; nil in reporting mode,
	// the only mode that fills found and seen.
	cur   *summary
	found map[string][]Finding
	seen  map[string]bool

	// report is true during the post-fixpoint walk, when sinks fire;
	// the fixpoint iterations themselves are pure transfers.
	report bool
	// exempt is set inside a //cafe:pooled function: the pool's own
	// machinery hands out pooled memory by design, so its pool sinks
	// stay silent and its summary carries no pool bits.
	exempt bool
	// enclBody is the enclosing declaration's body — goroutine join
	// checks look for the Wait() there, even from nested literals.
	enclBody *ast.BlockStmt
	depth    int
}

func (t *tracker) info() *types.Info { return t.pkg.Info }

// analyzeDecl analyzes one function declaration from init.
func (t *tracker) analyzeDecl(fn *types.Func, fd *ast.FuncDecl, init FlowState) {
	t.exempt = fn != nil && t.prog.PooledFunc(fn)
	t.enclBody = fd.Body
	t.analyzeBody(fd.Body, init)
}

// analyzeBody runs the dataflow to fixpoint over body, then replays
// every block once with its stable in-state to fire sinks (and, for
// summary mode, to record summary bits).
func (t *tracker) analyzeBody(body *ast.BlockStmt, init FlowState) {
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
func (t *tracker) transfer(st FlowState, n ast.Node) {
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
		t.sinkFact(t.factOf(st, n.Value), n.Pos(), "sent on a channel")
	case *ast.ReturnStmt:
		for i, e := range n.Results {
			t.scan(st, e)
			t.ret(st, e, i, n.Pos())
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

// scan walks an expression tree for side effects the structural rules
// miss: calls, uses of stale snapshot values, and function-literal
// bodies. Literal bodies are analyzed once, here, seeded with the
// current state; scan never descends into them.
func (t *tracker) scan(st FlowState, n ast.Node) {
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
			if obj := t.info().Uses[x]; obj != nil && st[obj].Stale {
				t.emit("snapshot", x.Pos(),
					"snapshot value retained across a swap point and used afterwards; re-load it or prove it safe with //cafe:allow snapshot")
			}
		}
		return true
	})
}

// assign implements = and := plus the compound forms. All right-hand
// sides are evaluated before any store, matching Go's tuple-assignment
// semantics.
func (t *tracker) assign(st FlowState, a *ast.AssignStmt) {
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
			t.store(st, l, facts[i])
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
			t.store(st, l, t.resultFact(flow, sum, t.info().TypeOf(l), i))
		}
	case *ast.TypeAssertExpr:
		// v, ok := x.(T)
		t.store(st, a.Lhs[0], t.factOf(st, r.X))
		for _, l := range a.Lhs[1:] {
			t.store(st, l, Fact{})
		}
	default:
		// v, ok := m[k] / <-ch: the comma-ok forms.
		t.store(st, a.Lhs[0], t.factOf(st, a.Rhs[0]))
		for _, l := range a.Lhs[1:] {
			t.store(st, l, Fact{})
		}
	}
}

// rhsFact evaluates one right-hand side for binding. A shallow copy
// through a pointer (out := *g) is a fresh value: it keeps only the
// pool components (the copy-on-write limit documented above).
func (t *tracker) rhsFact(st FlowState, e ast.Expr) Fact {
	f := t.factOf(st, e)
	if star, ok := unparen(e).(*ast.StarExpr); ok {
		if pt, ok := t.info().TypeOf(star.X).(*types.Pointer); ok {
			if _, isStruct := pt.Elem().Underlying().(*types.Struct); isStruct {
				return f.pool()
			}
		}
	}
	return f
}

// declStmt handles var declarations with initializers.
func (t *tracker) declStmt(st FlowState, d *ast.DeclStmt) {
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

// store writes a fact through an assignment target, firing retention
// sinks for targets that outlive the frame. Mutation checks on the
// target's bases already ran in checkStore.
func (t *tracker) store(st FlowState, lhs ast.Expr, f Fact) {
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
			return // globals re-taint at every read; no state to keep
		}
		st.set(obj, f) // strong update
	case *ast.SelectorExpr:
		if fv := t.fieldVarOf(l); fv != nil && t.prog.PooledField(fv) {
			return // refilling a pooled field is the pool's own business
		}
		t.sinkFact(f, lhs.Pos(), "stored into a struct field, outliving the call")
	case *ast.IndexExpr:
		// p[i] = v: writing into a local container keeps the fact
		// contained, on its elements as append would; writing into
		// pooled backing is a refill; anything else retains v beyond
		// the frame.
		if id, ok := unparen(l.X).(*ast.Ident); ok {
			if obj := t.objOf(id); obj != nil {
				if v, ok := obj.(*types.Var); ok && !isGlobal(v) && !v.IsField() {
					f.Elems = true
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
	}
}

// ret handles return operand i: summary bits in summary mode, the
// escape sink in reporting mode.
func (t *tracker) ret(st FlowState, e ast.Expr, i int, pos token.Pos) {
	f := t.factOf(st, e)
	if !t.report || !f.some() {
		return
	}
	if t.cur == nil {
		t.sinkFact(f, pos, "returned to the caller")
		return
	}
	if !t.exempt {
		t.cur.returnsArg |= f.Params
		// A pure param-derived alias (rs = rs[:limit]; return rs) is
		// already carried by returnsArg; only facts rooted in a real
		// pool source make the result pooled for every caller.
		if f.Pooled || (len(f.Alias) > 0 && f.Params == 0) {
			t.cur.returnsPooled = true
		}
	}
	t.cur.returnsMutArg |= f.MutParams
	t.cur.returnsRecv = t.cur.returnsRecv || f.Recv
	if f.Frozen {
		t.cur.taintMask |= resultBit(i)
	}
	if f.Snap {
		t.cur.snapMask |= resultBit(i)
	}
}

// goStmt handles goroutine launches: any tracked fact reaching the
// payload — as an argument or a captured variable — escapes unless
// the spawning function provably joins the goroutine (the payload
// counts down a sync.WaitGroup and the enclosing declaration calls
// Wait on one). A literal payload is analyzed with the spawning state:
// a goroutine mutating a captured snapshot is as wrong as its spawner
// doing it.
func (t *tracker) goStmt(st FlowState, g *ast.GoStmt) {
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
func (t *tracker) capturedFacts(st FlowState, lit *ast.FuncLit) Fact {
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
func (t *tracker) litSeed(st FlowState, lit *ast.FuncLit, args []ast.Expr) FlowState {
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
func (t *tracker) joinedGo(g *ast.GoStmt, lit *ast.FuncLit) bool {
	var payload *ast.BlockStmt
	payloadInfo := t.info()
	if lit != nil {
		payload = lit.Body
	} else if fn := calleeFunc(t.info(), g.Call); fn != nil {
		if d, ok := t.prog.callGraph().decls[fn]; ok {
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
		if isNamed(info.TypeOf(sel.X), "sync", "WaitGroup") {
			found = true
		}
		return !found
	})
	return found
}

// rangeBind binds the key/value variables of a range statement. Only
// pointer-bearing element values inherit the operand's fact, as the
// element itself (fully tainted); map keys are not tracked.
func (t *tracker) rangeBind(st FlowState, n *ast.RangeStmt) {
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
			vf.Elems = false
		}
	}
	bind(n.Value, vf)
}

// checkStore fires the mutation checks for one assignment target: the
// target's base chain is walked root-first, and the first tainted base
// reports (snapshot taint wins over frozen). Plain identifier targets
// are rebinds, not mutations.
func (t *tracker) checkStore(st FlowState, lhs ast.Expr) {
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
		if !f.some() || f.Elems {
			// Fresh spine: storing into the container is fine; element
			// mutation reports at the element's own base.
			continue
		}
		if t.mutationSink(f, lhs.Pos(),
			"store through an atomic snapshot; loaded snapshots are read-only views — build a new value aside and swap it in",
			"store into a //cafe:frozen value after publish; frozen values are immutable once published — build a copy instead") {
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
func (t *tracker) factOf(st FlowState, e ast.Expr) Fact {
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
			var f Fact
			if base := t.factOf(st, e.X); base.some() && hasPointers(fv.Type()) {
				f = base
			}
			if t.prog.PooledField(fv) {
				f.Pooled, f.Params, f.Alias = true, 0, nil
			}
			return f
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
		base := t.factOf(st, e.X)
		if base.pooly() {
			return base.withAlias(e.Pos())
		}
		return base
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.factOf(st, e.X)
		}
	case *ast.StarExpr:
		return t.factOf(st, e.X)
	case *ast.CompositeLit:
		// Slice, array, and map literals keep their elements' facts —
		// mutating an element of the aggregate mutates the source.
		// Struct literals are new values: they still hold the pool's
		// memory, but launder mutation taint (limit).
		var f Fact
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			f = mergeFact(f, t.factOf(st, v))
		}
		if lt := t.info().TypeOf(e); lt != nil {
			if _, isStruct := lt.Underlying().(*types.Struct); isStruct {
				return f.pool()
			}
		}
		return f
	}
	return Fact{}
}

// callFact evaluates a call used as a single expression.
func (t *tracker) callFact(st FlowState, call *ast.CallExpr) Fact {
	flow, sum := t.callFlow(st, call)
	res := t.info().TypeOf(call)
	if _, multi := res.(*types.Tuple); multi {
		res = nil // multi-result facts are gated per variable at the assignment
	}
	return t.resultFact(flow, sum, res, 0)
}

// resultFact adapts a call's flow fact to result i of type res. Error
// and pointer-free results carry nothing. Mutation taints propagated
// through a summary only survive into results that can hold frozen
// memory — a wrapper object built around the snapshot is a new value,
// not the snapshot. Direct sources (an atomic Load, a conversion,
// append) arrive with a nil summary and keep their taint; then the
// callee's per-result masks add the taints it introduces on its own.
func (t *tracker) resultFact(flow Fact, sum *summary, res types.Type, i int) Fact {
	if res != nil && (isErrorType(res) || !hasPointers(res)) {
		return Fact{}
	}
	f := flow
	if sum != nil {
		if res == nil || !t.carriesFrozen(res) {
			f.Frozen, f.Snap, f.Stale, f.Elems = false, false, false, false
		}
		if sum.taintMask&resultBit(i) != 0 {
			f.Frozen = true
		}
		if sum.snapMask&resultBit(i) != 0 {
			f.Snap = true
		}
	}
	return f
}

// carriesFrozen reports whether a value of type tt can hold memory of
// a //cafe:frozen type: the type itself, or an element reachable
// without crossing a struct boundary the analysis treats as a fresh
// wrapper.
func (t *tracker) carriesFrozen(tt types.Type) bool {
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

// callFlow evaluates a call: retention and mutation checks on its
// arguments and receiver, swap-point staleness, and the flow fact its
// results inherit, with the callee summary that fact came through.
func (t *tracker) callFlow(st FlowState, call *ast.CallExpr) (Fact, *summary) {
	fun := unparen(call.Fun)
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := t.info().Uses[id].(*types.Builtin); ok {
			return t.builtinFact(st, b.Name(), call), nil
		}
	}
	// Conversions: string<->[]byte copies the data; any other
	// conversion of a tracked value keeps its backing.
	if tv, ok := t.info().Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if isStringBytesConversion(t.info().TypeOf(call), t.info().TypeOf(call.Args[0])) {
			return Fact{}, nil
		}
		return t.factOf(st, call.Args[0]), nil
	}
	callee := calleeFunc(t.info(), call)
	if callee == nil {
		return Fact{}, nil // dynamic call through a function value: opaque (limit)
	}
	if isNamedMethod(callee, "sync", "Pool") {
		switch callee.Name() {
		case "Put":
			return Fact{}, nil // reclaims: the opposite of an escape
		case "Get":
			return Fact{Pooled: true}, nil
		}
	}
	var out Fact
	switch atomicViewMethod(callee) {
	case "Load":
		out.Snap = true
	case "Swap":
		out.Snap = true
		t.markStale(st, call)
	case "Store", "CompareAndSwap":
		t.markStale(st, call)
	}
	// Summaries are consulted in both modes: in summary mode the map
	// holds the callees-first partial results of the SCC fixpoint, so
	// flow through any chain of helpers composes transitively.
	sum := t.sums[callee]
	out.Pooled = t.prog.PooledFunc(callee) || sum != nil && sum.returnsPooled
	sig, _ := callee.Type().(*types.Signature)
	inModule := callee.Pkg() != nil && t.prog.InModule(callee.Pkg().Path())
	for i, arg := range call.Args {
		af := t.factOf(st, arg)
		if !af.some() {
			continue
		}
		bit := paramBit(sig, i)
		if sum != nil {
			if sum.returnsArg&bit != 0 {
				out = mergeFact(out, af.pool())
			}
			if sum.returnsMutArg&bit != 0 {
				out = mergeFact(out, af.mut())
			}
			if sum.mutatesArg&bit != 0 {
				t.mutatedBy(af, arg.Pos(), fmt.Sprintf("passed to %s, which mutates it", callee.Name()))
			}
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
	if sel, ok := fun.(*ast.SelectorExpr); ok && sum != nil && sig != nil && sig.Recv() != nil {
		if rf := t.factOf(st, sel.X); rf.some() {
			if sum.returnsRecv {
				out = mergeFact(out, rf.mut())
			}
			if sum.mutatesRecv {
				t.mutatedBy(rf, call.Pos(), fmt.Sprintf("%s mutates its receiver", callee.Name()))
			}
		}
	}
	if sum != nil && sum.swaps {
		t.markStale(st, call)
	}
	return out, sum
}

// builtinFact evaluates builtin calls. append on tracked backing is
// the base's fact, recorded as an alias view at the call when the base
// is pooled; appended pointer-bearing elements make the result share
// their referents (element-only for mutation taint: the spine is only
// shared when the base slice already was). Everything else (copy, len,
// make, clear, ...) yields no fact — copy in particular is the blessed
// way to un-pool or de-alias a value.
func (t *tracker) builtinFact(st FlowState, name string, call *ast.CallExpr) Fact {
	if name != "append" || len(call.Args) == 0 {
		return Fact{}
	}
	f := t.factOf(st, call.Args[0])
	if f.pooly() {
		f = f.withAlias(call.Pos())
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
			af.Elems = true
			f = mergeFact(f, af)
		}
	}
	return f
}

// sinkFact fires a retention sink: findings in reporting mode,
// retainsArg bits in summary mode, nothing during fixpoint or inside
// the pool's own machinery.
func (t *tracker) sinkFact(f Fact, pos token.Pos, how string) {
	if !t.report || t.exempt {
		return
	}
	if t.cur != nil {
		t.cur.retainsArg |= f.Params
		return
	}
	if f.Pooled {
		t.emit("poolescape", pos, "pooled scratch "+how+"; copy it first or scope it with //cafe:pooled")
	}
	for _, site := range f.Alias {
		t.emit("alias", site, "append/slice view of pooled backing "+how+"; copy into a fresh buffer instead")
	}
}

// mutatedBy fires the mutation sink for a value handed to a callee
// that mutates it.
func (t *tracker) mutatedBy(f Fact, pos token.Pos, how string) {
	t.mutationSink(f, pos, how+"; the value is a read-only snapshot view", how+"; the value is a published //cafe:frozen value")
}

// mutationSink fires a mutation of f: a snapshot or frozen finding in
// reporting mode (snapshot taint wins), mutatesArg/mutatesRecv bits in
// summary mode. It reports whether a finding fired.
func (t *tracker) mutationSink(f Fact, pos token.Pos, snapMsg, frozenMsg string) bool {
	switch {
	case !t.report:
	case t.cur != nil:
		t.cur.mutatesArg |= f.MutParams
		t.cur.mutatesRecv = t.cur.mutatesRecv || f.Recv
	case f.Snap:
		t.emit("snapshot", pos, snapMsg)
		return true
	case f.Frozen:
		t.emit("frozen", pos, frozenMsg)
		return true
	}
	return false
}

// markStale marks every live snapshot fact stale at a swap point,
// except the values handed to the swap call itself — they are the new
// snapshot, not a stale view of the old one.
func (t *tracker) markStale(st FlowState, call *ast.CallExpr) {
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

// emit records one finding of the reporting walk, once per line.
func (t *tracker) emit(pass string, pos token.Pos, msg string) {
	if !t.report || t.cur != nil {
		return
	}
	p := t.prog.Fset.Position(pos)
	key := fmt.Sprintf("%s:%d:%s:%s", p.Filename, p.Line, pass, msg)
	if t.seen[key] {
		return
	}
	t.seen[key] = true
	t.found[pass] = append(t.found[pass], Finding{Pos: p, PassName: pass, Message: msg})
}

// objOf resolves an identifier to its object, use or definition.
func (t *tracker) objOf(id *ast.Ident) types.Object {
	if obj := t.info().Uses[id]; obj != nil {
		return obj
	}
	return t.info().Defs[id]
}

// fieldVarOf resolves a selector to the struct field it denotes, or
// nil for methods and package-qualified names.
func (t *tracker) fieldVarOf(sel *ast.SelectorExpr) *types.Var {
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

// isNamed reports whether t, possibly behind a pointer, is the named
// type pkg.name.
func isNamed(t types.Type, pkg, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkg && named.Obj().Name() == name
}

// isNamedMethod reports whether fn is a method of pkg.typ.
func isNamedMethod(fn *types.Func, pkg, typ string) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && isNamed(sig.Recv().Type(), pkg, typ)
}

// atomicViewMethod returns the method name when fn is a method of
// sync/atomic's Pointer or Value wrappers, else "".
func atomicViewMethod(fn *types.Func) string {
	if fn != nil && (isNamedMethod(fn, "sync/atomic", "Pointer") || isNamedMethod(fn, "sync/atomic", "Value")) {
		return fn.Name()
	}
	return ""
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

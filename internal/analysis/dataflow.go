package analysis

// A small forward dataflow engine over the CFG of cfg.go. The engine
// is a may-analysis: block in-states are joined by union, and the
// transfer function is run to fixpoint with a worklist. Facts form a
// finite join-semilattice per function (booleans, two 64-bit parameter
// sets, and a set of alias sites bounded by the function's source
// positions), so the fixpoint terminates.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Fact is what the flow analysis (flow.go) knows about one variable at
// one program point. Two families of components ride it: the pool
// components Pooled/Params/Alias feed the poolescape and alias sinks,
// the mutation components Frozen/Snap/Elems/Stale/MutParams/Recv feed
// the frozen and snapshot sinks. Every component joins by union; the
// few rules that treat the families differently (a fresh struct value
// holds the pool's memory but is not the snapshot) act on a component
// set, never on a separate walk.
type Fact struct {
	// Pooled marks memory owned by a pool: the result of
	// (*sync.Pool).Get, of a //cafe:pooled function, or the value of a
	// //cafe:pooled struct field.
	Pooled bool
	// Params is a bitset of function parameters whose memory the value
	// may hold, used when computing per-function summaries (bit i =
	// parameter i). It follows containment: a struct literal wrapping a
	// parameter still holds it.
	Params uint64
	// Alias records the positions of append/slice expressions that
	// derived this value from pooled backing — the PR-5 bug shape. A
	// value with alias sites shares backing with a pool without being
	// the pooled object itself.
	Alias []token.Pos

	// Frozen marks a //cafe:frozen value that may already be published
	// (read from a global, returned by a function that hands out
	// published values, reached from another tainted value): mutating
	// it is a frozen-pass violation. Freshness needs no bit of its own:
	// a value constructed in the current function simply carries no
	// taint, so constructor-style mutation stays silent.
	Frozen bool
	// Snap marks a value loaded from an atomic.Pointer/atomic.Value
	// snapshot, or memory reached from one: a read-only view.
	Snap bool
	// Elems weakens Frozen/Snap to the elements of a container whose
	// spine is freshly allocated (append onto an untainted base copies
	// the spine): storing INTO the container is fine, mutating through
	// an element is not. Joining with a full taint drops the weakening.
	Elems bool
	// Stale marks a snapshot value retained across a swap point (a call
	// that transitively performs an atomic Store/Swap): using it after
	// the swap is a snapshot-pass violation.
	Stale bool
	// MutParams is the bitset of parameters a store through the value
	// may reach, and Recv its receiver bit. Unlike Params it stops at a
	// fresh struct value: a wrapper built around a parameter, or a
	// shallow copy of one, is new memory.
	MutParams uint64
	Recv      bool
}

// some reports whether the fact carries any information.
func (f Fact) some() bool {
	return f.pooly() || f.Frozen || f.Snap || f.Stale || f.MutParams != 0 || f.Recv
}

// pooly reports whether any pool component is set.
func (f Fact) pooly() bool { return f.Pooled || f.Params != 0 || len(f.Alias) > 0 }

// pool keeps only the pool components of f.
func (f Fact) pool() Fact { return Fact{Pooled: f.Pooled, Params: f.Params, Alias: f.Alias} }

// mut keeps only the mutation components of f.
func (f Fact) mut() Fact {
	f.Pooled, f.Params, f.Alias = false, 0, nil
	return f
}

// withAlias returns f extended with one alias site, dropping Pooled:
// the derived view shares backing but is not the pooled object.
func (f Fact) withAlias(pos token.Pos) Fact {
	f.Pooled, f.Alias = false, addPos(f.Alias, pos)
	return f
}

// mergeFact joins two facts (set union on every component).
func mergeFact(a, b Fact) Fact {
	out := Fact{
		Pooled:    a.Pooled || b.Pooled,
		Params:    a.Params | b.Params,
		Alias:     a.Alias,
		Frozen:    a.Frozen || b.Frozen,
		Snap:      a.Snap || b.Snap,
		Stale:     a.Stale || b.Stale,
		MutParams: a.MutParams | b.MutParams,
		Recv:      a.Recv || b.Recv,
	}
	// Elems survives a join only when every tainted side is
	// elements-only: none < elements-tainted < fully-tainted.
	aT, bT := a.Frozen || a.Snap, b.Frozen || b.Snap
	if (aT || bT) && !(aT && !a.Elems) && !(bT && !b.Elems) {
		out.Elems = true
	}
	for _, p := range b.Alias {
		out.Alias = addPos(out.Alias, p)
	}
	return out
}

// factEqual reports whether two facts carry the same information.
func factEqual(a, b Fact) bool {
	if a.Pooled != b.Pooled || a.Params != b.Params || len(a.Alias) != len(b.Alias) {
		return false
	}
	if a.Frozen != b.Frozen || a.Snap != b.Snap || a.Elems != b.Elems ||
		a.Stale != b.Stale || a.MutParams != b.MutParams || a.Recv != b.Recv {
		return false
	}
	for i := range a.Alias {
		if a.Alias[i] != b.Alias[i] {
			return false
		}
	}
	return true
}

// addPos inserts pos into a sorted position set.
func addPos(set []token.Pos, pos token.Pos) []token.Pos {
	i := sort.Search(len(set), func(i int) bool { return set[i] >= pos })
	if i < len(set) && set[i] == pos {
		return set
	}
	out := make([]token.Pos, 0, len(set)+1)
	out = append(out, set[:i]...)
	out = append(out, pos)
	out = append(out, set[i:]...)
	return out
}

// FlowState maps variables to their facts at one program point.
// Variables without information are absent.
type FlowState map[types.Object]Fact

func (s FlowState) clone() FlowState {
	out := make(FlowState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// set stores a fact, dropping empty facts to keep states small and
// merges cheap.
func (s FlowState) set(obj types.Object, f Fact) {
	if f.some() {
		s[obj] = f
	} else {
		delete(s, obj)
	}
}

// mergeState joins src into dst and reports whether dst changed.
func mergeState(dst, src FlowState) bool {
	changed := false
	for obj, f := range src {
		old, ok := dst[obj]
		if !ok {
			dst[obj] = f
			changed = true
			continue
		}
		m := mergeFact(old, f)
		if !factEqual(m, old) {
			dst[obj] = m
			changed = true
		}
	}
	return changed
}

// ForwardFlow runs transfer over g to fixpoint, starting from init at
// Entry, and returns the in-state of every reached block. Blocks
// absent from the result are unreachable (callers should treat their
// in-state as empty). transfer must be monotone: it may only add or
// strongly update facts as a function of the incoming state.
func ForwardFlow(g *CFG, init FlowState, transfer func(FlowState, ast.Node)) map[*Block]FlowState {
	in := map[*Block]FlowState{g.Entry: init.clone()}
	queued := map[*Block]bool{g.Entry: true}
	work := []*Block{g.Entry}
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk] = false
		st := in[blk].clone()
		for _, n := range blk.Nodes {
			transfer(st, n)
		}
		for _, succ := range blk.Succs {
			changed := false
			if in[succ] == nil {
				in[succ] = st.clone()
				changed = true
			} else {
				changed = mergeState(in[succ], st)
			}
			if changed && !queued[succ] {
				queued[succ] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

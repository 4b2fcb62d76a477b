package analysis

import (
	"go/token"
	"go/types"
	"testing"
)

// TestCallGraphCalleesFirst loads the fixture module and checks the
// SCC order contract: when a function is processed, every callee
// outside its own component has already been emitted.
func TestCallGraphCalleesFirst(t *testing.T) {
	prog, err := Load("testdata/src/fixture", "fixture")
	if err != nil {
		t.Fatal(err)
	}
	cg := buildCallGraph(prog)
	if len(cg.decls) == 0 {
		t.Fatal("empty call graph")
	}
	for fn, callees := range cg.callees {
		for _, callee := range callees {
			if cg.sccOf[callee] > cg.sccOf[fn] {
				t.Errorf("callee %s (scc %d) emitted after caller %s (scc %d)",
					callee.Name(), cg.sccOf[callee], fn.Name(), cg.sccOf[fn])
			}
		}
	}
	// The laundering chains the passes rely on must be edges.
	wantEdge := func(caller, callee string) {
		t.Helper()
		for fn, callees := range cg.callees {
			if fn.Name() != caller {
				continue
			}
			for _, c := range callees {
				if c.Name() == callee {
					return
				}
			}
		}
		t.Errorf("missing call edge %s -> %s", caller, callee)
	}
	wantEdge("touch", "initPeers")
}

// TestTransClosurePropagatesChain checks that a fact travels a full
// summaryDepth-hop chain: f0 calls f1 calls ... and only the last
// function carries the direct fact.
func TestTransClosurePropagatesChain(t *testing.T) {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	fns := make([]*types.Func, summaryDepth+1)
	for i := range fns {
		fns[i] = types.NewFunc(token.NoPos, nil, "f", sig)
	}
	edges := map[*types.Func][]*types.Func{}
	for i := 0; i+1 < len(fns); i++ {
		edges[fns[i]] = []*types.Func{fns[i+1]}
	}
	bout := transClosureBool(edges, map[*types.Func]token.Pos{fns[len(fns)-1]: 7})
	if pos, ok := bout[fns[0]]; !ok || pos != 7 {
		t.Fatalf("bool fact did not reach the chain head: %v (ok=%v)", pos, ok)
	}
}

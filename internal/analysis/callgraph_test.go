package analysis

import "testing"

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

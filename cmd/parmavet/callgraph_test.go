package main

import (
	"testing"
)

const (
	xchainPath = "parma/cmd/parmavet/testdata/src/xchain"
	innerPath  = "parma/cmd/parmavet/testdata/src/xchain/inner"
)

// FuncNamed finds a node by package path and name; methods are addressed
// as "Recv.Method".
func (p *Program) FuncNamed(pkgPath, name string) *FuncNode {
	for _, n := range p.funcs {
		if n.Pkg.Path != pkgPath {
			continue
		}
		if funcKey(n.Obj) == name {
			return n
		}
	}
	return nil
}

// hasEdge reports whether from has a call edge to an identically keyed
// callee in calleePkg.
func hasEdge(prog *Program, from *FuncNode, calleePkg, calleeKey string) bool {
	for _, e := range from.Edges {
		if e.Callee.Pkg() != nil && e.Callee.Pkg().Path() == calleePkg && funcKey(e.Callee) == calleeKey {
			return true
		}
	}
	return false
}

// TestCallGraphEdges covers the three edge kinds the engine resolves:
// direct same-package calls, method calls, and cross-package calls.
func TestCallGraphEdges(t *testing.T) {
	prog := buildProgram(loadFixtures(t))

	// Cross-package direct call: xchain.relay → inner.Exchange.
	relay := prog.FuncNamed(xchainPath, "relay")
	if relay == nil {
		t.Fatal("no node for xchain.relay")
	}
	if !hasEdge(prog, relay, innerPath, "Exchange") {
		t.Errorf("relay is missing its cross-package edge to inner.Exchange; edges: %v", relay.Edges)
	}

	// Same-package direct call: xchain.twoHopDeadlock → xchain.relay.
	twoHop := prog.FuncNamed(xchainPath, "twoHopDeadlock")
	if twoHop == nil {
		t.Fatal("no node for xchain.twoHopDeadlock")
	}
	if !hasEdge(prog, twoHop, xchainPath, "relay") {
		t.Errorf("twoHopDeadlock is missing its direct edge to relay; edges: %v", twoHop.Edges)
	}

	// Method call: ctxflow.dropsCtxMethod → (*runner).Run.
	ctxflowPath := "parma/cmd/parmavet/testdata/src/ctxflow"
	dropsMethod := prog.FuncNamed(ctxflowPath, "dropsCtxMethod")
	if dropsMethod == nil {
		t.Fatal("no node for ctxflow.dropsCtxMethod")
	}
	if !hasEdge(prog, dropsMethod, ctxflowPath, "runner.Run") {
		t.Errorf("dropsCtxMethod is missing its method edge to runner.Run; edges: %v", dropsMethod.Edges)
	}

	// Edges into dependency packages resolve even without bodies:
	// inner.Exchange → mpi.Comm.Barrier.
	exchange := prog.FuncNamed(innerPath, "Exchange")
	if exchange == nil {
		t.Fatal("no node for inner.Exchange")
	}
	if !hasEdge(prog, exchange, mpiPath, "Comm.Barrier") {
		t.Errorf("Exchange is missing its edge to Comm.Barrier; edges: %v", exchange.Edges)
	}
}

// TestBlocksSummaryPropagation follows the blocks-on-MPI summary through
// two hops and across a package boundary, and checks the rendered
// witness chain diagnostics use.
func TestBlocksSummaryPropagation(t *testing.T) {
	prog := buildProgram(loadFixtures(t))

	exchange := prog.FuncNamed(innerPath, "Exchange")
	if exchange == nil || exchange.Blocks == nil {
		t.Fatal("inner.Exchange should carry a direct blocks-on-MPI summary")
	}
	if got := prog.BlockChain(exchange.Obj); got != "Comm.Barrier" {
		t.Errorf("Exchange chain = %q, want %q", got, "Comm.Barrier")
	}

	relay := prog.FuncNamed(xchainPath, "relay")
	if relay == nil || relay.Blocks == nil {
		t.Fatal("xchain.relay should inherit the summary across the package boundary")
	}
	if got := prog.BlockChain(relay.Obj); got != "Exchange → Comm.Barrier" {
		t.Errorf("relay chain = %q, want %q", got, "Exchange → Comm.Barrier")
	}

	twoHop := prog.FuncNamed(xchainPath, "twoHopDeadlock")
	if twoHop == nil || twoHop.Blocks == nil {
		t.Fatal("twoHopDeadlock should inherit the summary through two hops")
	}
	if got := prog.BlockChain(twoHop.Obj); got != "relay → Exchange → Comm.Barrier" {
		t.Errorf("twoHopDeadlock chain = %q, want %q", got, "relay → Exchange → Comm.Barrier")
	}

	// The goroutine spawn in spawnIsClean must NOT leak a summary edge —
	// but locksend's fixture lives in another package; the equivalent
	// negative case here: unlockedExchange blocks (it calls Exchange
	// synchronously), while threaded does not block at all.
	if n := prog.FuncNamed(xchainPath, "unlockedExchange"); n == nil || n.Blocks == nil {
		t.Error("unlockedExchange should carry the blocks summary (it calls Exchange synchronously)")
	}
	if n := prog.FuncNamed(xchainPath, "threaded"); n == nil || n.Blocks != nil {
		t.Error("threaded should not carry a blocks summary")
	}
}

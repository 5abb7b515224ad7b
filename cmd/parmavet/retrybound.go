package main

// retrybound: a retry loop in the resilience-critical packages (the MPI
// runtime and the serving layer) must not be able to spin forever. A loop
// that sleeps between attempts — time.Sleep or a <-time.After receive —
// is a retry loop; it must carry a visible bound: a three-clause for with
// a counter, a range over a finite attempt set, a deadline check
// (time.Now / time.Since / time.Until), or a context check (Done / Err /
// Deadline). Unbounded retries are exactly how a transient fault turns
// into a hung rank or a wedged worker: the reliable transport's whole
// design is bounded attempts escalating to a typed ErrRankDead, and this
// check keeps new code on that path. Deliberately unbounded loops (e.g. a
// supervisor that must outlive any fault) opt out with
// `//parmavet:allow retrybound` and a reason.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var retryboundAnalyzer = &Analyzer{
	Name:     "retrybound",
	Doc:      "retry loops in internal/mpi and internal/serve must bound attempts or check a deadline/context",
	Packages: []string{mpiPath, "parma/internal/serve"},
	Run:      runRetrybound,
}

func runRetrybound(pass *Pass) {
	info := pass.Pkg.Info
	// Attribute each backoff call to its innermost enclosing loop, then
	// report the loops that sleep without any visible bound. The walk is
	// lexical (func literals inside a loop body count): a retry closure
	// defined in the loop still runs per iteration.
	sleeps := map[ast.Node]bool{} // loop node -> contains a backoff
	pass.inspectStack(func(n ast.Node, stack []ast.Node) {
		if isBackoff(info, n) {
			if l := innermostLoop(stack); l != nil {
				sleeps[l] = true
			}
		}
	})
	for loop := range sleeps {
		if loopBounded(info, loop) {
			continue
		}
		pass.Reportf(loop.Pos(), "unbounded retry loop: it sleeps between attempts but never bounds them; add a counter, a deadline (time.Now/Since/Until), or a context check, or annotate //parmavet:allow retrybound with the reason")
	}
}

// isBackoff reports whether n is a between-attempts pause: a time.Sleep
// call or a receive from time.After.
func isBackoff(info *types.Info, n ast.Node) bool {
	switch e := n.(type) {
	case *ast.CallExpr:
		return pkgFunc(staticCallee(info, e), "time", "Sleep")
	case *ast.UnaryExpr:
		if e.Op != token.ARROW {
			return false
		}
		call, ok := ast.Unparen(e.X).(*ast.CallExpr)
		return ok && pkgFunc(staticCallee(info, call), "time", "After", "Tick")
	}
	return false
}

// innermostLoop returns the deepest for/range statement on the ancestor
// stack, or nil.
func innermostLoop(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return stack[i]
		}
	}
	return nil
}

// loopBounded reports whether the loop carries a visible attempt bound.
func loopBounded(info *types.Info, loop ast.Node) bool {
	switch l := loop.(type) {
	case *ast.RangeStmt:
		// Ranging over a finite attempt set (slice, int, map...) is the
		// bound. Ranging over a channel terminates when the sender closes
		// it, which is an external liveness decision we accept.
		return true
	case *ast.ForStmt:
		// The canonical counter: for i := 0; i < max; i++.
		if l.Cond != nil && l.Post != nil {
			return true
		}
		if l.Cond != nil && hasDeadlineCheck(info, l.Cond) {
			return true
		}
		return hasDeadlineCheck(info, l.Body)
	}
	return false
}

// hasDeadlineCheck reports whether n contains a wall-clock deadline probe
// (time.Now / time.Since / time.Until) or a context liveness probe
// (Done / Err / Deadline on a context.Context).
func hasDeadlineCheck(info *types.Info, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if pkgFunc(staticCallee(info, call), "time", "Now", "Since", "Until") {
			found = true
			return false
		}
		if recv, method, okM := methodOn(info, call, "context"); okM && recv == "Context" {
			switch method {
			case "Done", "Err", "Deadline":
				found = true
				return false
			}
		}
		return true
	})
	return found
}

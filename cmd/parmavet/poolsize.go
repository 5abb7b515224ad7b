package main

// poolsize: a `go` statement lexically inside a for/range loop in the
// compute packages (sched, parallel, mat, manifold, experiments, solver,
// sparse, circuit) is a raw fan-out — one goroutine per item, width bounded
// only by the data. Every worker loop must instead go through sched.Run,
// the tree's one fan-out; kernels reach it through mat.ParallelFor, which
// sizes it from GOMAXPROCS and the Parallelism override so it composes
// with parmad's request-level workers instead of oversubscribing the
// machine. Run's own spawn site is the one sanctioned exception, annotated
// `//parmavet:allow poolsize`. The check is lexical on purpose: a spawn
// inside a func literal that is defined inside a loop still runs per
// iteration when the literal is called there, so it is flagged too.

import (
	"go/ast"
)

var poolsizeAnalyzer = &Analyzer{
	Name: "poolsize",
	Doc:  "no raw goroutine fan-out loops in the compute packages; use sched.Run",
	Packages: []string{
		"parma/internal/sched", "parma/internal/parallel", "parma/internal/mat",
		"parma/internal/manifold", "parma/internal/experiments", "parma/internal/solver",
		"parma/internal/sparse", "parma/internal/circuit",
	},
	Run: runPoolsize,
}

func runPoolsize(pass *Pass) {
	pass.inspectStack(func(n ast.Node, stack []ast.Node) {
		if g, ok := n.(*ast.GoStmt); ok && inLoopBody(stack, g) {
			pass.Reportf(g.Go, "go statement inside a loop: fan out through sched.Run (the one worker loop; mat.ParallelFor for kernels) instead, or annotate //parmavet:allow poolsize with the reason")
		}
	})
}

// inLoopBody reports whether g sits inside the body of any ancestor for or
// range statement (as opposed to its init/cond/post clauses).
func inLoopBody(stack []ast.Node, g *ast.GoStmt) bool {
	for _, n := range stack {
		var body *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			body = s.Body
		case *ast.RangeStmt:
			body = s.Body
		default:
			continue
		}
		if body.Pos() <= g.Pos() && g.End() <= body.End() {
			return true
		}
	}
	return false
}

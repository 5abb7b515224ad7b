package main

// floateq: `==` and `!=` on floating-point operands are flagged in the
// numerics packages (solver, circuit, mat, kirchhoff). Recovered R values
// and effective resistances are tolerance-exact at best (§IV: iterative
// recovery stops at a residual target), so raw equality either always
// fails or hides a latent precision assumption. The one always-sound
// idiom, `x != x` as a NaN test, is exempt; everything else needs an
// explicit `//parmavet:allow floateq` with a justification — typically
// "this compares against an exact sentinel that was assigned, not
// computed".

import (
	"go/ast"
	"go/token"
	"go/types"
)

var floateqAnalyzer = &Analyzer{
	Name:     "floateq",
	Doc:      "no ==/!= on floats in the numerics packages",
	Packages: []string{"parma/internal/solver", "parma/internal/circuit", "parma/internal/mat", "parma/internal/kirchhoff"},
	Run:      runFloateq,
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func runFloateq(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if !isFloat(info.TypeOf(be.X)) && !isFloat(info.TypeOf(be.Y)) {
				return true
			}
			// Both sides constant: folded at compile time, exact by
			// definition.
			if info.Types[be.X].Value != nil && info.Types[be.Y].Value != nil {
				return true
			}
			// x != x / x == x: the portable NaN test, exact by IEEE 754.
			if types.ExprString(be.X) == types.ExprString(be.Y) {
				return true
			}
			pass.Reportf(be.OpPos, "%s on float operands: recovered values are tolerance-exact, not bit-exact; compare with a tolerance or annotate //parmavet:allow floateq with the reason", be.Op)
			return true
		})
	}
}

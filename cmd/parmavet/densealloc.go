package main

// densealloc: (*sparse.CSR).Dense() materializes the full m×n matrix —
// O(rows·cols) memory for a structure whose whole point is storing O(nnz).
// It exists for tests and small-problem comparisons; on the serving path
// (serve, solver, circuit) a densification silently turns the sparse
// large-n recovery back into the dense-memory regime it was built to
// escape, and at n=128 that is a quarter-million-entry allocation per
// call. Those packages must stay on the CSR kernels (MulVecTo, RowVals);
// a deliberate small-problem densification needs an explicit
// `//parmavet:allow densealloc` with the size bound that justifies it.

import (
	"go/ast"
	"go/types"
	"strings"
)

var denseallocAnalyzer = &Analyzer{
	Name: "densealloc",
	Doc:  "no CSR.Dense() densification in the serve-path packages; stay on the sparse kernels",
	Applies: func(pkgPath string) bool {
		switch pkgPath {
		case "parma/internal/serve", "parma/internal/solver",
			"parma/internal/circuit":
			return true
		}
		// Fixture packages opt in by directory name.
		return strings.Contains(pkgPath, "parmavet/testdata/")
	},
	Run: runDensealloc,
}

// isCSR reports whether t is sparse.CSR or a pointer to it. Matching on
// the named type keeps the check robust to aliasing through locals and
// struct fields; the name alone is specific enough that fixtures can
// define their own CSR stand-in.
func isCSR(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "CSR"
}

func runDensealloc(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Dense" {
				return true
			}
			if !isCSR(info.TypeOf(sel.X)) {
				return true
			}
			pass.Reportf(sel.Sel.NamePos, "CSR.Dense() on the serve path materializes O(rows*cols) memory: use the sparse kernels (MulVecTo, RowVals) or annotate //parmavet:allow densealloc with the size bound")
			return true
		})
	}
}

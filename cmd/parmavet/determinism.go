package main

// determinism: the bit-identical claims (any-pool-width kernel
// equivalence, the XOR-of-checksums formation digest that every strategy
// and world size must reproduce) only hold if the numerics and formation paths are pure functions of their
// inputs. Go randomizes map iteration order per run, so three shapes
// silently break them:
//
//   - floating-point accumulation inside `range` over a map: FP addition
//     is not associative, so the sum depends on visit order;
//   - append to an outer slice inside `range` over a map: the element
//     order — and anything derived from it (wire messages, checksums) —
//     differs run to run, unless the slice is sorted afterwards;
//   - MPI traffic issued inside `range` over a map: the message order
//     seen by peers is random, including calls that only reach the wire
//     transitively (resolved through the call graph).
//
// Two more nondeterminism sources are flagged in the same packages:
// draws from the shared math/rand global source (unseeded and
// goroutine-interleaved; deterministic code must thread a seeded
// *rand.Rand), and wall-clock timestamps converted to values
// (time.Now().Unix*/Nanosecond) — time used for deadlines and durations
// (Since/Sub/Before) is fine, time used as data is not.

import (
	"go/ast"
	"go/token"
	"go/types"
)

var determinismAnalyzer = &Analyzer{
	Name:     "determinism",
	Doc:      "no map-iteration-ordered results, unseeded math/rand, or wall-clock values in the deterministic packages",
	Packages: []string{"parma/internal/mat", "parma/internal/solver", "parma/internal/kirchhoff", "parma/internal/sparse", "parma/internal/fleet", mpiPath},
	Run:      runDeterminism,
}

// orderSite is one order-sensitive use of map iteration inside a body.
type orderSite struct {
	pos token.Pos
	msg string
}

func runDeterminism(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt, name string) {
			for _, site := range mapRangeSites(info, body, pass.Prog) {
				pass.Reportf(site.pos, "%s", site.msg)
			}
		})
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if name, bad := globalRandDraw(info, call); bad {
				pass.Reportf(call.Pos(), "rand.%s draws from the shared global source: the sequence depends on every other draw in the process, so results are not a function of the inputs; thread a seeded *rand.Rand instead", name)
			}
			if method, bad := wallClockValue(info, call); bad {
				pass.Reportf(call.Pos(), "time.Now().%s turns the wall clock into a value: two runs of the same inputs differ; clocks are for deadlines and durations (Since/Sub/Before), not data", method)
			}
			return true
		})
	}
}

// mapRangeSites finds the order-sensitive map-iteration shapes in body.
// With a program, calls that transitively reach a blocking MPI primitive
// are resolved too; a nil prog sees only direct MPI calls. Func-literal
// subtrees are skipped — they are independent scopes.
func mapRangeSites(info *types.Info, body *ast.BlockStmt, prog *Program) []orderSite {
	var sites []orderSite
	ast.Inspect(body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		sites = append(sites, mapRangeBody(info, body, rng, prog)...)
		return true
	})
	return sites
}

// mapRangeBody inspects one map-range body for order-sensitive effects.
// funcBody is the enclosing function body, needed for the sorted-after
// exemption.
func mapRangeBody(info *types.Info, funcBody *ast.BlockStmt, rng *ast.RangeStmt, prog *Program) []orderSite {
	var sites []orderSite
	outside := func(obj types.Object) bool {
		return obj != nil && !(obj.Pos() >= rng.Pos() && obj.Pos() <= rng.Body.End())
	}
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		switch v := n.(type) {
		case *ast.AssignStmt:
			if len(v.Lhs) != 1 || len(v.Rhs) != 1 {
				return true
			}
			lhs, rhs := v.Lhs[0], v.Rhs[0]
			obj := rootIdentObj(info, lhs)
			if !outside(obj) {
				return true
			}
			if fpAccumulation(info, v, obj) {
				sites = append(sites, orderSite{pos: v.Pos(),
					msg: "floating-point accumulation into " + types.ExprString(lhs) + " ordered by map iteration: FP addition is not associative, so the result differs run to run and breaks the bit-identical checksum proofs; iterate sorted keys instead"})
				return true
			}
			if v.Tok == token.ASSIGN && isAppendOf(info, rhs, obj) &&
				!sortedAfter(info, funcBody, obj, rng.End()) {
				sites = append(sites, orderSite{pos: v.Pos(),
					msg: "append to " + types.ExprString(lhs) + " ordered by map iteration: the element order is random per run, so anything derived from it (wire messages, checksums) is nondeterministic; sort it afterwards or iterate sorted keys"})
			}
		case *ast.CallExpr:
			fn := staticCallee(info, v)
			if fn == nil {
				return true
			}
			if name, ok := seedBlocking(fn); ok {
				sites = append(sites, orderSite{pos: v.Pos(),
					msg: "MPI traffic (" + name + ") issued in map-iteration order: peers observe a different message order every run; iterate sorted keys"})
			} else if chain := prog.BlockChain(fn); chain != "" {
				sites = append(sites, orderSite{pos: v.Pos(),
					msg: "call to " + fn.Name() + " issues MPI traffic (via " + chain + ") in map-iteration order: peers observe a different message order every run; iterate sorted keys"})
			}
		}
		return true
	})
	return sites
}

// fpAccumulation matches `x op= v` and `x = x op v` where x has floating
// point (or complex) type and obj is x's root object.
func fpAccumulation(info *types.Info, assign *ast.AssignStmt, obj types.Object) bool {
	lhs := assign.Lhs[0]
	t := info.TypeOf(lhs)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsFloat|types.IsComplex) == 0 {
		return false
	}
	switch assign.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return true
	case token.ASSIGN:
		bin, okB := ast.Unparen(assign.Rhs[0]).(*ast.BinaryExpr)
		if !okB {
			return false
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			return rootIdentObj(info, bin.X) == obj || rootIdentObj(info, bin.Y) == obj
		}
	}
	return false
}

// isAppendOf matches `append(x, ...)` where x's root object is obj.
func isAppendOf(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	id, okI := ast.Unparen(call.Fun).(*ast.Ident)
	if !okI || id.Name != "append" {
		return false
	}
	if b, okB := info.Uses[id].(*types.Builtin); !okB || b.Name() != "append" {
		return false
	}
	return rootIdentObj(info, call.Args[0]) == obj
}

// sortedAfter reports whether obj is passed (anywhere in the argument
// tree) to a sort/slices function after pos in funcBody — the sanctioned
// way to make a map-collected slice deterministic.
func sortedAfter(info *types.Info, funcBody *ast.BlockStmt, obj types.Object, pos token.Pos) bool {
	found := false
	ast.Inspect(funcBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos {
			return true
		}
		fn := staticCallee(info, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, okI := m.(*ast.Ident); okI && info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// rootIdentObj resolves the base identifier of e (unwrapping selectors,
// indexes, and parens) to its object: `s.sum` → s, `out` → out.
func rootIdentObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[v]; obj != nil {
				return obj
			}
			return info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// globalRandDraw matches package-level calls into math/rand (v1 or v2)
// other than the explicit-source constructors: those share the global
// source, whose sequence depends on every other draw in the process.
func globalRandDraw(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(info, call)
	if !pkgFunc(fn, "math/rand") && !pkgFunc(fn, "math/rand/v2") {
		return "", false // includes methods on an explicit *rand.Rand
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return "", false
	}
	return fn.Name(), true
}

// wallClockValue matches time.Now().Unix* / Nanosecond — a timestamp
// flowing into the value domain. (A Now stored in a variable first is not
// tracked; the check is lexical by design.)
func wallClockValue(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Unix", "UnixNano", "UnixMilli", "UnixMicro", "Nanosecond":
	default:
		return "", false
	}
	inner, okI := ast.Unparen(sel.X).(*ast.CallExpr)
	if !okI {
		return "", false
	}
	if !pkgFunc(staticCallee(info, inner), "time", "Now") {
		return "", false
	}
	return sel.Sel.Name, true
}

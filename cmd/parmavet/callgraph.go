package main

// The whole-program call-graph engine. The per-function flow engine in
// flow.go sees one body at a time, so an invariant like "no blocking MPI
// call under a lock" was only enforced where the Comm call was lexically
// visible. This file builds the missing global view: every function
// declared in the loaded (target) packages becomes a node, every call
// site that resolves statically — direct calls, method calls, and calls
// into other target packages — becomes an edge, and a per-function
// summary is propagated bottom-up over the graph until a fixpoint.
//
// Resolution is deliberately conservative and documented as such:
//
//   - plain calls (`f()`) and package-qualified calls (`pkg.F()`) resolve
//     through types.Info.Uses;
//   - method calls (`x.M()`) resolve through types.Info.Selections to the
//     concrete method when the receiver is a named (non-interface) type;
//   - interface method calls resolve to the interface method object,
//     which has no body: they contribute a summary only when the
//     interface itself is a seeded MPI primitive (mpi.Transport);
//   - function values, func-literal calls, and method values are not
//     resolved — a closure is analyzed as its own scope by the flow
//     engine, never folded into its enclosing function's summary;
//   - `go f()` does not add an edge: the spawn returns immediately, so
//     the caller itself does not block in f. Deferred calls do run
//     before the caller returns and keep their edge.
//
// The one summary computed per node is Blocks: the function may park in
// a blocking MPI primitive (Comm.Send/Recv/collectives,
// Transport.Send/Recv, World.Run/RunCollect), directly or through
// any chain of resolved calls; it carries a witness chain for
// diagnostics.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CallEdge is one statically resolved call site.
type CallEdge struct {
	Callee *types.Func
	Pos    token.Pos
}

// BlockWitness records why a function is considered blocking: the call
// site inside the function, and either the terminal MPI primitive name or
// the callee whose own witness continues the chain.
type BlockWitness struct {
	Pos      token.Pos
	Terminal string      // e.g. "Comm.Send" when the call site hits MPI directly
	Callee   *types.Func // non-nil when the block is inherited from a callee
}

// FuncNode is one declared function with a body in a target package.
type FuncNode struct {
	Obj   *types.Func
	Pkg   *Package
	Edges []CallEdge

	Blocks *BlockWitness
}

// Program is the whole-program view shared by every Pass of one run.
type Program struct {
	Pkgs  []*Package
	funcs map[*types.Func]*FuncNode

	atomicMixes []atomicMix // computed lazily by the atomicmix analyzer
	atomicDone  bool
}

// Node returns the graph node for fn, or nil when fn has no body in the
// loaded target packages (dependency-only, interface, or builtin).
func (p *Program) Node(fn *types.Func) *FuncNode {
	if p == nil || fn == nil {
		return nil
	}
	return p.funcs[fn]
}

// funcKey renders fn as "Name" or "Recv.Name".
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if ptr, okP := t.(*types.Pointer); okP {
		t = ptr.Elem()
	}
	if named, okN := t.(*types.Named); okN && named.Obj() != nil {
		return named.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// buildProgram indexes every function declaration in pkgs, resolves its
// static call edges, and runs the blocks fixpoint.
func buildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: map[*types.Func]*FuncNode{}}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: fn, Pkg: pkg}
				node.Edges = collectEdges(pkg.Info, fd.Body)
				prog.funcs[fn] = node
			}
		}
	}
	prog.propagateBlocks()
	return prog
}

// collectEdges gathers the statically resolvable call sites of body,
// skipping func-literal subtrees (their bodies are independent scopes)
// and the immediate call of `go` statements (the spawn does not block the
// caller; argument expressions are still evaluated synchronously and are
// walked).
func collectEdges(info *types.Info, body *ast.BlockStmt) []CallEdge {
	var edges []CallEdge
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch v := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.GoStmt:
				for _, arg := range v.Call.Args {
					walk(arg)
				}
				return false
			case *ast.CallExpr:
				if fn := staticCallee(info, v); fn != nil {
					edges = append(edges, CallEdge{Callee: fn, Pos: v.Pos()})
				}
			}
			return true
		})
	}
	walk(body)
	return edges
}

// staticCallee resolves call to the *types.Func it invokes, or nil when
// the callee is dynamic (a function value, func literal, or method
// value). Type conversions are filtered out. Interface methods resolve to
// the interface's method object (which has no body).
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil // conversion, not a call
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() != types.MethodVal {
				return nil // func-valued field
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn // package-qualified call
		}
	}
	return nil
}

// seedBlocking reports whether fn is one of the axiomatic blocking MPI
// primitives (the same table locksend has always used), returning its
// display name.
func seedBlocking(fn *types.Func) (string, bool) {
	if fn.Pkg() == nil || fn.Pkg().Path() != mpiPath {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	t := sig.Recv().Type()
	if ptr, okP := t.(*types.Pointer); okP {
		t = ptr.Elem()
	}
	named, okN := t.(*types.Named)
	if !okN || named.Obj() == nil {
		return "", false
	}
	recv := named.Obj().Name()
	if !blockingMPIMethods[recv][fn.Name()] {
		return "", false
	}
	return recv + "." + fn.Name(), true
}

// propagateBlocks runs the bottom-up may-block fixpoint: a node blocks
// when any resolved call site hits a seeded MPI primitive or a callee
// already known to block. Iterating to a fixpoint handles recursion and
// mutual recursion without an explicit SCC pass.
func (p *Program) propagateBlocks() {
	for changed := true; changed; {
		changed = false
		for _, node := range p.funcs {
			if node.Blocks != nil {
				continue
			}
			for _, e := range node.Edges {
				if name, ok := seedBlocking(e.Callee); ok {
					node.Blocks = &BlockWitness{Pos: e.Pos, Terminal: name}
					changed = true
					break
				}
				if callee := p.funcs[e.Callee]; callee != nil && callee.Blocks != nil {
					node.Blocks = &BlockWitness{Pos: e.Pos, Callee: e.Callee}
					changed = true
					break
				}
			}
		}
	}
}

// BlockChain renders fn's witness as "A → B → Comm.Send" (function names
// only, starting at fn's callee), or the bare terminal for a direct hit.
// Returns "" when fn is not known to block.
func (p *Program) BlockChain(fn *types.Func) string {
	node := p.Node(fn)
	if node == nil || node.Blocks == nil {
		return ""
	}
	var parts []string
	seen := map[*types.Func]bool{}
	for w := node.Blocks; w != nil; {
		if w.Terminal != "" {
			parts = append(parts, w.Terminal)
			break
		}
		if seen[w.Callee] {
			parts = append(parts, funcKey(w.Callee)+"…")
			break
		}
		seen[w.Callee] = true
		parts = append(parts, funcKey(w.Callee))
		next := p.funcs[w.Callee]
		if next == nil {
			break
		}
		w = next.Blocks
	}
	return strings.Join(parts, " → ")
}

package main

// ctxflow: a request's context.Context carries its deadline,
// cancellation, and trace identity; the serving invariants (429/503
// shedding before the deadline burns, ErrCanceled surfacing
// mid-recovery, connected span trees) only hold if the ctx is threaded
// through every hop. In the request-path packages (serve, solver, fleet,
// mpi) three shapes break the chain while a context.Context parameter is
// lexically in scope:
//
//   - a span started with the context-blind obs.StartSpan / obs.StartOn
//     silently forks the work out of its trace: the span lands on a fresh
//     track with no parent, so the request's tree shows a hole exactly
//     where the latency attribution matters. Such calls must go through
//     obs.StartSpanCtx / obs.StartSpanIn (or carry the trace explicitly
//     with obs.StartOnTraced);
//   - a function holding a ctx calls a callee through its context-blind
//     variant when a context-accepting sibling exists — e.g. calling
//     Run when RunCtx is right there, or Fetch when FetchContext exists.
//     The callee then runs with no deadline and no trace, and nothing
//     downstream can tell;
//   - a function holding a ctx manufactures a fresh
//     context.Background()/TODO(): everything below that point detaches
//     from the request — cancellation never propagates and the span tree
//     shows an orphaned subtree.
//
// The scope is lexical and includes enclosing functions: a func literal
// inherits any context parameter of the function it is defined in,
// because the closure can capture it. Siblings are <Name>Context /
// <Name>Ctx in the same package, or on the same receiver type for
// methods. The canonical wrapper pattern — RunCtx itself calling Run with
// the ctx captured in a closure — is exempt: a call is not flagged when
// the enclosing function *is* the callee's ctx sibling.

import (
	"go/ast"
	"go/types"
)

var ctxflowAnalyzer = &Analyzer{
	Name:     "ctxflow",
	Doc:      "a held context.Context must be threaded: no context-blind span starts, no ctx-blind calls with a ctx sibling, no context.Background/TODO on the request path",
	Packages: []string{"parma/internal/serve", "parma/internal/solver", "parma/internal/fleet", mpiPath},
	Run:      runCtxflow,
}

func runCtxflow(pass *Pass) {
	info := pass.Pkg.Info
	pass.inspectStack(func(n ast.Node, stack []ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok {
			checkCtxflowCall(pass, info, stack, call)
		}
	})
}

func checkCtxflowCall(pass *Pass, info *types.Info, stack []ast.Node, call *ast.CallExpr) {
	fn := staticCallee(info, call)
	if fn == nil {
		return
	}
	ctx := contextInScope(info, stack)
	if ctx == "" {
		return
	}
	switch {
	case pkgFunc(fn, "context", "Background", "TODO"):
		pass.Reportf(call.Pos(), "context.%s manufactures a fresh context while %s is held: the deadline, cancellation, and trace identity all detach here; thread the held ctx (derive with context.WithTimeout/WithCancel if a different lifetime is needed)", fn.Name(), ctx)
		return
	case pkgFunc(fn, obsPath, "StartSpan", "StartOn"):
		pass.Reportf(call.Pos(), "obs.%s ignores %s: the span cannot parent to the request trace; use obs.StartSpanCtx or obs.StartSpanIn, or annotate //parmavet:allow ctxflow with the reason", fn.Name(), ctx)
		return
	}
	sib := ctxSiblingOf(fn)
	if sib == nil {
		return
	}
	if encl := enclosingFuncObj(info, stack); encl != nil && (encl == sib || encl == fn) {
		return // the wrapper itself (RunCtx calling Run), or recursion
	}
	pass.Reportf(call.Pos(), "%s ignores %s but has the context-accepting sibling %s: the deadline and cancellation chain breaks at this hop; call %s and pass the ctx", fn.Name(), ctx, sib.Name(), sib.Name())
}

// enclosingFuncObj returns the *types.Func of the nearest enclosing
// function declaration on the ancestor stack. Func literals are climbed
// past: a closure inside RunCtx is still "inside RunCtx" for the wrapper
// exemption.
func enclosingFuncObj(info *types.Info, stack []ast.Node) *types.Func {
	for i := len(stack) - 1; i >= 0; i-- {
		if f, ok := stack[i].(*ast.FuncDecl); ok {
			if fn, okF := info.Defs[f.Name].(*types.Func); okF {
				return fn
			}
			return nil
		}
	}
	return nil
}

// contextInScope reports the nearest named context.Context parameter of any
// enclosing function (FuncDecl or FuncLit) on the ancestor stack, or "" when
// none is reachable. A parameter named _ cannot be threaded from that frame,
// so the search keeps climbing past it.
func contextInScope(info *types.Info, stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		var ft *ast.FuncType
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			ft = f.Type
		case *ast.FuncLit:
			ft = f.Type
		default:
			continue
		}
		if name := ctxParamName(info, ft); name != "" {
			return name
		}
	}
	return ""
}

func ctxParamName(info *types.Info, ft *ast.FuncType) string {
	if ft.Params == nil {
		return ""
	}
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil || !namedTypeIs(t, "context", "Context") {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return "the in-scope context parameter " + name.Name
			}
		}
	}
	return ""
}

// acceptsCtx reports whether sig has a context.Context parameter.
func acceptsCtx(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if namedTypeIs(params.At(i).Type(), "context", "Context") {
			return true
		}
	}
	return false
}

// ctxSiblingOf finds the context-accepting variant of fn: a function (or
// method on the same receiver type) named <Name>Context or <Name>Ctx
// whose signature takes a context.Context. Returns nil when fn itself
// already accepts one, or no sibling exists. Signatures survive
// IgnoreFuncBodies type-checking, so the lookup works for dependency
// packages too.
func ctxSiblingOf(fn *types.Func) *types.Func {
	if fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || acceptsCtx(sig) {
		return nil
	}
	names := []string{fn.Name() + "Context", fn.Name() + "Ctx"}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if ptr, okP := t.(*types.Pointer); okP {
			t = ptr.Elem()
		}
		named, okN := t.(*types.Named)
		if !okN {
			return nil
		}
		for _, name := range names {
			obj, _, _ := types.LookupFieldOrMethod(named, true, fn.Pkg(), name)
			if m, okM := obj.(*types.Func); okM && acceptsCtx(m.Type().(*types.Signature)) {
				return m
			}
		}
		return nil
	}
	for _, name := range names {
		if obj := fn.Pkg().Scope().Lookup(name); obj != nil {
			if f2, okF := obj.(*types.Func); okF && acceptsCtx(f2.Type().(*types.Signature)) {
				return f2
			}
		}
	}
	return nil
}

package main

// locksend: a sync.Mutex or sync.RWMutex held across a blocking MPI call.
// The in-process transport is rendezvous-shaped (Recv blocks until a
// matching Send, collectives block on tree neighbors), so holding a lock
// that another rank's callback also takes while blocked in Comm.Send/Recv
// is a classic distributed deadlock: rank A waits in Recv holding the
// lock, rank B waits for the lock before it can Send. The analyzer tracks
// Lock/RLock → Unlock/RUnlock pairing path-sensitively inside each
// function; `defer mu.Unlock()` keeps the lock held until every exit, so
// every blocking call after it is flagged.
//
// With the call-graph engine (pass.Prog) the check is interprocedural: a
// call made under the lock to any function whose bottom-up summary says
// it may park in an MPI primitive — through any chain of resolved calls,
// across packages — is flagged with the witness chain. The original
// lexical check only saw Comm/World/Transport methods named at the call
// site itself, so wrapping the Send in a one-line helper silenced it;
// TestLocksendLexicalMiss pins that exact blind spot. A `go f()` spawn is
// not flagged even when f blocks: the spawned goroutine does not hold
// this goroutine's locks (its argument expressions, which do evaluate
// synchronously, are still scanned).

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

var locksendAnalyzer = &Analyzer{
	Name: "locksend",
	Doc:  "no blocking MPI call while holding a mutex",
	Run:  runLocksend,
}

// blockingMPIMethods are the Comm/World/Transport methods that can block
// on another rank's progress.
var blockingMPIMethods = map[string]map[string]bool{
	"Comm": {
		"Send": true, "Recv": true, "Barrier": true, "Bcast": true,
		"ReduceSum": true, "AllreduceSum": true,
	},
	"Transport": {"Send": true, "Recv": true},
	"World":     {"Run": true, "RunCollect": true},
}

const lockHeld = 1

func runLocksend(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		funcBodies(file, func(body *ast.BlockStmt, name string) {
			c := &locksendClient{pass: pass, info: pass.Pkg.Info, lockPos: map[string]token.Pos{}}
			runFlow(c, body, flowState{})
		})
	}
}

type locksendClient struct {
	pass    *Pass
	info    *types.Info
	lockPos map[string]token.Pos
}

// mutexOp matches `x.Lock()` / `x.Unlock()` / RW variants on a
// sync.Mutex/RWMutex value and returns the lock's identity (the rendered
// receiver expression) plus the method name.
func (c *locksendClient) mutexOp(call *ast.CallExpr) (key, method string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	recv, method, isMethod := methodOn(c.info, call, "sync")
	if !isMethod || (recv != "Mutex" && recv != "RWMutex") {
		return "", "", false
	}
	switch method {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return "lock:" + types.ExprString(sel.X), method, true
	}
	return "", "", false
}

// blockingCall matches a call to one of the blocking MPI methods.
func (c *locksendClient) blockingCall(call *ast.CallExpr) (string, bool) {
	recv, method, ok := methodOn(c.info, call, mpiPath)
	if !ok || !blockingMPIMethods[recv][method] {
		return "", false
	}
	return recv + "." + method, ok
}

func (c *locksendClient) atom(st flowState, s ast.Stmt) {
	if d, ok := s.(*ast.DeferStmt); ok {
		// `defer mu.Unlock()` releases only at exit: the lock stays held
		// for everything that runs before, so do not clear it. Ends of
		// other deferred calls are equally irrelevant to lock state.
		if _, _, isMutex := c.mutexOp(d.Call); isMutex {
			return
		}
		c.scan(st, d.Call)
		return
	}
	c.scan(st, s)
}

func (c *locksendClient) expr(st flowState, e ast.Expr) { c.scan(st, e) }

// scan walks a subtree in evaluation order, updating lock state and
// flagging blocking calls made while any lock is held.
func (c *locksendClient) scan(st flowState, node ast.Node) {
	if node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			return false // closures run elsewhere; analyzed separately
		case *ast.GoStmt:
			// The spawn returns immediately and the new goroutine does not
			// hold this goroutine's locks; only the synchronously evaluated
			// arguments are scanned.
			for _, arg := range v.Call.Args {
				c.scan(st, arg)
			}
			return false
		}
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if key, method, ok := c.mutexOp(call); ok {
			switch method {
			case "Lock", "RLock":
				st[key] = lockHeld
				c.lockPos[key] = call.Pos()
			case "Unlock", "RUnlock":
				delete(st, key)
			}
			return true
		}
		if name, ok := c.blockingCall(call); ok {
			c.flagHeld(st, call, func(lock string, lockLine int) string {
				return fmt.Sprintf("%s may block while %s is held (locked at line %d); a rank waiting here deadlocks every goroutine contending for that lock", name, lock, lockLine)
			})
			return true
		}
		if fn := staticCallee(c.info, call); fn != nil {
			if chain := c.pass.Prog.BlockChain(fn); chain != "" {
				c.flagHeld(st, call, func(lock string, lockLine int) string {
					return fmt.Sprintf("%s may transitively block in an MPI call (via %s) while %s is held (locked at line %d); a rank parked down that chain deadlocks every goroutine contending for that lock", fn.Name(), chain, lock, lockLine)
				})
			}
		}
		return true
	})
}

// flagHeld reports one finding at call for every lock currently held.
func (c *locksendClient) flagHeld(st flowState, call *ast.CallExpr, msg func(lock string, lockLine int) string) {
	for key, v := range st {
		if v != lockHeld {
			continue
		}
		ks, isStr := key.(string)
		if !isStr {
			continue
		}
		lockLine := c.pass.Pkg.Fset.Position(c.lockPos[ks]).Line
		c.pass.Reportf(call.Pos(), "%s", msg(ks[len("lock:"):], lockLine))
	}
}

func (c *locksendClient) refine(st flowState, cond ast.Expr, val bool) flowState { return st }

func (c *locksendClient) exit(st flowState, pos token.Pos) {}

func (c *locksendClient) terminal(s ast.Stmt) bool {
	return isTerminalStmt(c.info, s)
}

package mat

// The kernel layer's width knob. Every parallel kernel (MulPar, ATA,
// Cholesky trailing updates) and every caller that fans work out over
// matrix rows (solver Jacobian assembly, circuit pair sweeps) routes
// through ParallelFor, so one knob — Parallelism — bounds the total
// goroutine fan-out of the kernel layer. That is what lets the kernels
// compose with parmad's request-level worker pool without
// oversubscription: the serving layer divides GOMAXPROCS between the two
// levels instead of multiplying them (see internal/serve.NewServer).
//
// The workers themselves are sched.Run's, drawing from a dynamic Chunker:
// chunks are handed out by a shared counter rather than pre-partitioned,
// so unevenly sized work items (the triangular row lengths of ATA, the
// shrinking columns of Cholesky) self-balance. Run is called unnamed — no
// span, no track — because a recovery calls ParallelFor once per SpMV.

import (
	"runtime"
	"sync/atomic"

	"parma/internal/sched"
)

// parDegree is the configured kernel parallelism; <= 0 selects GOMAXPROCS
// at call time.
var parDegree atomic.Int64

// Parallelism sets the worker count every kernel in this package (and every
// ParallelFor caller) may fan out to, returning the previous setting.
// n <= 0 restores the default, GOMAXPROCS at call time. The setting is
// process-global on purpose: a server running K concurrent recoveries wants
// K·Parallelism ≈ GOMAXPROCS, which only a shared knob can arrange.
func Parallelism(n int) int {
	if n < 0 {
		n = 0
	}
	return int(parDegree.Swap(int64(n)))
}

// degree resolves the effective worker count.
func degree() int {
	if d := parDegree.Load(); d > 0 {
		return int(d)
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelFor runs fn over disjoint chunks of [0, n), each at most grain
// wide, across the package worker pool. It returns once every index is
// covered. fn must be safe to call concurrently on disjoint ranges; chunks
// are claimed from a shared counter so uneven per-index work self-balances.
// With one worker (or n below one grain) it degrades to a direct call,
// costing nothing over a plain loop.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	workers := min(degree(), (n+grain-1)/grain)
	if workers <= 1 {
		fn(0, n)
		return
	}
	sched.Run("", workers, sched.NewChunker(n, workers, sched.Dynamic, grain),
		func(_ int, r sched.Range) { fn(r.Lo, r.Hi) })
}

package mat

// The kernel layer's width knob and its one chunk rule. Every parallel
// kernel (MulPar, ATA, Cholesky's column updates) and every caller that fans
// work out over independent tasks (the solver's cross blocks and Jacobian
// rows, the forward model's wire rows and pair sweeps, the sparse kernels)
// routes through ParallelFor, so one knob — Parallelism — bounds the total
// goroutine fan-out of the kernel layer. That is what lets the kernels
// compose with parmad's request-level worker pool without
// oversubscription: the serving layer divides GOMAXPROCS between the two
// levels instead of multiplying them (see internal/serve.NewServer).
//
// Callers say what one index costs in flops, never how many indices a chunk
// holds: ParallelFor packs chunkFlops of work into each chunk, and Chunks
// reports how many chunks that makes, so a caller whose work is one chunk
// can call its kernel directly and skip the escaping closure.
//
// The workers themselves are sched.Run's persistent helpers, drawing from a
// dynamic Chunker: chunks are handed out by a shared counter rather than
// pre-partitioned, so unevenly sized work items (the triangular row lengths
// of ATA, the shrinking columns of Cholesky) self-balance. The helpers stay
// awake for a short window between fan-outs, so a CG loop's next product
// finds them running, and the chunker and the wrapper Run calls are kept in
// pooled forJobs, so a fan-out allocates what a one-worker call does. Run is
// called unnamed — no span, no track — because a recovery calls ParallelFor
// once per product.

import (
	"runtime"
	"sync"
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

// chunkFlops is the arithmetic one pool chunk carries. Each ParallelFor is
// a fork-join whose hand-off, to a helper still spinning from the last
// fan-out, costs a few µs (a 64×64 cross product, eight chunks, took 119 µs
// on two workers against 235 on one, on a 2-vCPU Xeon VM, go1.24.0), and a
// chunk must be worth far more than that hand-off and the chunker's shared
// counter. On the same VM, when every fan-out still spawned its helpers, a
// 64×64 cross product read the same recover-64 latency at eight chunks of
// 2¹⁷ flops and at thirty-two of 2¹⁵, while 32×32 recoveries on two workers
// ran 5.5–7.2 ms (cold start) and 8.4–10.2 ms (far start) with the product
// one chunk against 6.1–8.6 and 10.4–12.4 ms with it four. Whether a
// smaller chunk pays on the persistent pool is ROADMAP item 24(b).
const chunkFlops = 1 << 17

// grain is the number of indices of the given cost one chunk covers.
func grain(flops int) int { return max(1, chunkFlops/max(1, flops)) }

// Chunks is the number of chunks ParallelFor(n, flops, ·) splits [0, n)
// into: 0 for n <= 0, 1 when the whole range fits one chunk.
func Chunks(n, flops int) int {
	if n <= 0 {
		return 0
	}
	g := grain(flops)
	return (n + g - 1) / g
}

// ParallelFor runs fn over disjoint chunks of [0, n) across the package
// worker pool, where one index costs about flops floating-point operations
// and each chunk carries about chunkFlops of them. It returns once every
// index is covered. fn must be safe to call concurrently on disjoint ranges;
// chunks are claimed from a shared counter so uneven per-index work
// self-balances. With one worker (or one chunk) it degrades to a direct
// call, costing nothing over a plain loop beyond the closure the caller
// built: callers that want none test Chunks first. A call that fans out
// allocates nothing more.
func ParallelFor(n, flops int, fn func(lo, hi int)) {
	chunks := Chunks(n, flops)
	if chunks == 0 {
		return
	}
	workers := min(degree(), chunks)
	if workers <= 1 {
		fn(0, n)
		return
	}
	forJobs.Lock()
	var j *forJob
	if k := len(forJobs.free); k > 0 {
		j, forJobs.free = forJobs.free[k-1], forJobs.free[:k-1]
	} else {
		j = &forJob{}
		j.body = j.run
	}
	forJobs.Unlock()
	j.fn = fn
	j.chunks.Reset(n, workers, sched.Dynamic, grain(flops))
	sched.Run("", workers, &j.chunks, j.body)
	j.fn = nil
	forJobs.Lock()
	forJobs.free = append(forJobs.free, j)
	forJobs.Unlock()
}

// forJob is one ParallelFor fan-out's chunker and body, kept for the next.
type forJob struct {
	chunks sched.Chunker
	fn     func(lo, hi int)
	body   func(worker int, r sched.Range) // j.run, bound once
}

func (j *forJob) run(_ int, r sched.Range) { j.fn(r.Lo, r.Hi) }

// forJobs holds the forJobs no ParallelFor is using.
var forJobs struct {
	sync.Mutex
	free []*forJob
}

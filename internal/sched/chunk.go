package sched

import (
	"fmt"
	"sync"
	"sync/atomic"

	"parma/internal/obs"
)

// Policy selects how loop iterations are handed to workers, mirroring
// OpenMP's schedule clause (the PyMP work-sharing constructs of §IV-C2).
type Policy uint8

const (
	// Static pre-splits the iteration space into one contiguous block per
	// worker. No synchronization, but no load balancing.
	Static Policy = iota
	// Dynamic hands out fixed-size chunks from a shared counter; idle
	// workers keep pulling until the space is exhausted.
	Dynamic
	// Guided hands out shrinking chunks: remaining/workers, clamped below
	// by the chunk size — large blocks early, fine-grained at the tail.
	Guided
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	default:
		return fmt.Sprintf("Policy(%d)", uint8(p))
	}
}

// Range is a half-open iteration interval [Lo, Hi).
type Range struct{ Lo, Hi int }

// StaticRanges splits [0, n) into w near-equal contiguous ranges. The
// first n mod w ranges get one extra iteration. Empty ranges appear when
// w > n.
func StaticRanges(n, w int) []Range {
	if w < 1 {
		w = 1
	}
	out := make([]Range, w)
	base := n / w
	extra := n % w
	lo := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{Lo: lo, Hi: lo + size}
		lo += size
	}
	return out
}

// WeightedRanges splits [0, n) into contiguous ranges proportional to the
// given positive weights — the static partitioner for heterogeneous
// workers whose speeds differ. Rounding drift accumulates into the last
// range; every index is covered exactly once.
func WeightedRanges(n int, weights []float64) []Range {
	if len(weights) == 0 {
		return []Range{{Lo: 0, Hi: n}}
	}
	var total float64
	for i, w := range weights {
		if w <= 0 {
			panic(fmt.Sprintf("sched: non-positive weight %g at %d", w, i))
		}
		total += w
	}
	out := make([]Range, len(weights))
	lo := 0
	acc := 0.0
	for i, w := range weights {
		acc += w
		hi := int(acc / total * float64(n))
		if i == len(weights)-1 {
			hi = n
		}
		if hi < lo {
			hi = lo
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// Chunker hands out chunks of the iteration space [0, n) according to a
// policy. Next is safe for concurrent use.
type Chunker struct {
	n       int
	workers int
	policy  Policy
	chunk   int
	next    atomic.Int64

	staticRanges []Range       // precomputed per-worker ranges (Static)
	staticTaken  []atomic.Bool // one-shot flags per worker (Static)
	mu           sync.Mutex    // guards guided's variable-size handout

	handouts *obs.Counter // chunks handed out (nil when obs is disabled)
}

// NewChunker builds a chunker over [0, n) for w workers. chunk is the
// dynamic chunk size / guided minimum; values < 1 become 1.
func NewChunker(n, w int, policy Policy, chunk int) *Chunker {
	if w < 1 {
		w = 1
	}
	if chunk < 1 {
		chunk = 1
	}
	c := &Chunker{n: n, workers: w, policy: policy, chunk: chunk,
		handouts: obs.GetCounter("sched/chunks_handed_out")}
	if policy == Static {
		c.staticRanges = StaticRanges(n, w)
		c.staticTaken = make([]atomic.Bool, w)
	}
	return c
}

// Next returns the next chunk for the given worker, or ok=false when the
// iteration space is exhausted. Static policy ignores contention entirely:
// each worker receives its pre-split range exactly once.
func (c *Chunker) Next(worker int) (Range, bool) {
	switch c.policy {
	case Static:
		if worker < 0 || worker >= c.workers {
			panic(fmt.Sprintf("sched: worker %d out of range [0,%d)", worker, c.workers))
		}
		if c.staticTaken[worker].Swap(true) {
			return Range{}, false // this worker already received its range
		}
		r := c.staticRanges[worker]
		if r.Lo >= r.Hi {
			return Range{}, false
		}
		c.handouts.Add(1)
		return r, true
	case Dynamic:
		for {
			lo := c.next.Load()
			if lo >= int64(c.n) {
				return Range{}, false
			}
			hi := lo + int64(c.chunk)
			if hi > int64(c.n) {
				hi = int64(c.n)
			}
			if c.next.CompareAndSwap(lo, hi) {
				c.handouts.Add(1)
				return Range{Lo: int(lo), Hi: int(hi)}, true
			}
		}
	case Guided:
		c.mu.Lock()
		defer c.mu.Unlock()
		lo := int(c.next.Load())
		if lo >= c.n {
			return Range{}, false
		}
		remaining := c.n - lo
		size := remaining / c.workers
		if size < c.chunk {
			size = c.chunk
		}
		if size > remaining {
			size = remaining
		}
		c.next.Store(int64(lo + size))
		c.handouts.Add(1)
		return Range{Lo: lo, Hi: lo + size}, true
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", c.policy))
	}
}

// Package parallel implements the paper's parallelization strategies for
// forming the joint-constraint system (§IV–§V):
//
//   - Serial: the Single-thread baseline of the prior art [15].
//   - FourWay: the paper's Parallel — one thread per constraint category,
//     structurally capped at 4 workers.
//   - Balanced: the paper's Balanced Parallel — a deterministic,
//     cost-weighted (LPT) pre-balance of (pair, category) tasks.
//   - Stealing: runtime work-stealing over the same tasks (the
//     nondeterministic alternative §IV-C1 contrasts against).
//   - FineGrained: the paper's PyMP-k — intra-category parallelism over
//     individual equations with OpenMP-style chunking, the strategy whose
//     parallelism is licensed by the topology's Betti number.
//
// Every strategy forms the identical canonical equation system; they differ
// only in schedule.
package parallel

import (
	"fmt"
	"runtime"
	"slices"

	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

// Options configures a strategy run.
type Options struct {
	// Workers is the concurrency degree; < 1 selects GOMAXPROCS. FourWay
	// ignores it (the paper's Parallel is structurally four threads).
	Workers int
	// Policy picks FineGrained's chunk handout; other strategies ignore it.
	Policy sched.Policy
	// Chunk is FineGrained's chunk size; < 1 selects a default.
	Chunk int
	// Collect retains the formed equations in canonical order. When false,
	// equations are formed, hashed, and discarded — the memory-bounded mode
	// used at large scales.
	Collect bool
}

func (o Options) workers() int {
	if o.Workers < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Result reports one formation run.
type Result struct {
	// Equations holds the canonical system when Options.Collect was set.
	Equations []kirchhoff.Equation
	// Count is the number of equations formed.
	Count int
	// Hash is an order-independent digest of the formed system; all
	// strategies produce the same value for the same problem.
	Hash uint64
	// Strategy names the producer.
	Strategy string
}

// Strategy forms the whole joint-constraint system under some schedule.
type Strategy interface {
	Name() string
	Run(p *kirchhoff.Problem, opts Options) Result
}

// sink accumulates per-worker results without synchronization; workers own
// disjoint sinks, indexed by sched.Run's worker id, that are merged at the
// end.
type sink struct {
	eqs   []kirchhoff.Equation // shared canonical slots (disjoint writes)
	prob  *kirchhoff.Problem
	terms []kirchhoff.Term // the worker's formation buffer
	count int
	hash  uint64
	// Pads a sink to 128 bytes so one worker's count and hash writes do
	// not share a cache line (or its prefetch pair) with a neighbour's
	// fields (false sharing there cost FineGrained 5–10 % at 48×48 on a
	// two-vCPU VM).
	_ [56]byte
}

// formAt forms canonical equation idx into the sink's term buffer. The
// result's Terms are valid until the next formAt on the same sink.
func (s *sink) formAt(idx int) kirchhoff.Equation {
	e := s.prob.EquationAt(idx, s.terms)
	s.terms = e.Terms
	return e
}

// emit folds one equation into the sink. The Terms may be borrowed, so a
// collecting sink stores a copy.
func (s *sink) emit(e kirchhoff.Equation) {
	if s.eqs != nil {
		e.Terms = slices.Clone(e.Terms)
		s.eqs[s.prob.EquationIndex(e)] = e
	}
	s.count++
	s.hash ^= kirchhoff.Checksum(e)
}

func newSinks(p *kirchhoff.Problem, w int, collect bool) ([]sink, []kirchhoff.Equation) {
	var eqs []kirchhoff.Equation
	if collect {
		eqs = make([]kirchhoff.Equation, kirchhoff.SystemCensus(p.Array).Equations)
	}
	sinks := make([]sink, w)
	for i := range sinks {
		sinks[i] = sink{eqs: eqs, prob: p}
	}
	return sinks, eqs
}

func merge(name string, sinks []sink, eqs []kirchhoff.Equation) Result {
	r := Result{Strategy: name, Equations: eqs}
	for i := range sinks {
		r.Count += sinks[i].count
		r.Hash ^= sinks[i].hash
	}
	return r
}

// Task enumeration: 4 categories per pair, indexed pair-major.

// taskOf decodes a task id into (pairI, pairJ, category).
func taskOf(p *kirchhoff.Problem, task int) (int, int, kirchhoff.Category) {
	cols := p.Array.Cols()
	pair := task / len(kirchhoff.Categories)
	cat := kirchhoff.Categories[task%len(kirchhoff.Categories)]
	return pair / cols, pair % cols, cat
}

// taskCount returns the number of (pair, category) tasks.
func taskCount(p *kirchhoff.Problem) int {
	return p.Array.Pairs() * len(kirchhoff.Categories)
}

// TaskCost estimates a task's formation work as its total term count —
// the skew the paper highlights: intermediate categories are ~n times
// heavier than source/destination ones.
func TaskCost(p *kirchhoff.Problem, task int) float64 {
	m, n := p.Array.Rows(), p.Array.Cols()
	switch kirchhoff.Categories[task%len(kirchhoff.Categories)] {
	case kirchhoff.CatSource:
		return float64(n)
	case kirchhoff.CatDest:
		return float64(m)
	case kirchhoff.CatUa:
		return float64((n - 1) * m)
	default: // CatUb
		return float64((m - 1) * n)
	}
}

func runTask(p *kirchhoff.Problem, s *sink, task int) {
	i, j, cat := taskOf(p, task)
	p.FormCategory(i, j, cat, s.emit)
}

func checkProblem(p *kirchhoff.Problem) {
	if p == nil {
		panic("parallel: nil problem")
	}
	if p.Array.Rows() > 1<<15 || p.Array.Cols() > 1<<15 {
		panic(fmt.Sprintf("parallel: array %v exceeds int16 resistor indices", p.Array))
	}
}

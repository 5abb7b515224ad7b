package parallel

import (
	"parma/internal/kirchhoff"
	"parma/internal/obs"
	"parma/internal/sched"
)

// strategySpan opens the span covering one whole strategy run.
func strategySpan(name string) obs.Span {
	return obs.StartSpan("parallel/" + name)
}

// Serial is the Single-thread baseline: canonical-order formation on one
// goroutine.
type Serial struct{}

// Name implements Strategy.
func (Serial) Name() string { return "single-thread" }

// Run implements Strategy.
func (s Serial) Run(p *kirchhoff.Problem, opts Options) Result {
	checkProblem(p)
	sp := strategySpan(s.Name())
	sinks, eqs := newSinks(p, 1, opts.Collect)
	for i := 0; i < p.Array.Rows(); i++ {
		for j := 0; j < p.Array.Cols(); j++ {
			p.FormPair(i, j, sinks[0].emit)
		}
	}
	res := merge(s.Name(), sinks, eqs)
	sp.End(obs.I("equations", res.Count))
	return res
}

// FourWay is the paper's Parallel strategy: one goroutine per constraint
// category. Its concurrency is structurally capped at four, and the two
// intermediate categories carry ~n times the work of the others — the load
// skew that motivates Balanced and FineGrained.
type FourWay struct{}

// Name implements Strategy.
func (FourWay) Name() string { return "parallel" }

// Run implements Strategy. Options.Workers is ignored by design.
func (f FourWay) Run(p *kirchhoff.Problem, opts Options) Result {
	checkProblem(p)
	sp := strategySpan(f.Name())
	cats := kirchhoff.Categories
	sinks, eqs := newSinks(p, len(cats), opts.Collect)
	// The static schedule of four indices over four workers: one each.
	src := sched.NewChunker(len(cats), len(cats), sched.Static, 1)
	sched.Run(f.Name(), len(cats), src, sched.Each(func(w, c int) {
		for i := 0; i < p.Array.Rows(); i++ {
			for j := 0; j < p.Array.Cols(); j++ {
				p.FormCategory(i, j, cats[c], sinks[w].emit)
			}
		}
	}))
	res := merge(f.Name(), sinks, eqs)
	sp.End(obs.I("equations", res.Count))
	return res
}

// Balanced is the paper's Balanced Parallel: a deterministic cost-weighted
// pre-assignment of (pair, category) tasks to workers using the LPT greedy
// rule. There is no runtime coordination at all — the determinism that cuts
// switching overhead at small scales but forfeits flexibility at large ones
// (§IV-C1).
type Balanced struct{}

// Name implements Strategy.
func (Balanced) Name() string { return "balanced-parallel" }

// Run implements Strategy.
func (b Balanced) Run(p *kirchhoff.Problem, opts Options) Result {
	checkProblem(p)
	sp := strategySpan(b.Name())
	w := opts.workers()
	sinks, eqs := newSinks(p, w, opts.Collect)
	bins := sched.BalanceLPT(taskCount(p), w, func(task int) float64 {
		return TaskCost(p, task)
	})
	sched.Run(b.Name(), w, sched.Assigned(bins), sched.Each(func(worker, task int) {
		runTask(p, &sinks[worker], task)
	}))
	res := merge(b.Name(), sinks, eqs)
	sp.End(obs.I("equations", res.Count))
	return res
}

// Stealing runs the same (pair, category) tasks under runtime work-stealing
// deques — the stochastic counterpart the paper contrasts with Balanced's
// determinism. It serves as an ablation of that design choice.
type Stealing struct{}

// Name implements Strategy.
func (Stealing) Name() string { return "work-stealing" }

// Run implements Strategy.
func (s Stealing) Run(p *kirchhoff.Problem, opts Options) Result {
	checkProblem(p)
	sp := strategySpan(s.Name())
	w := opts.workers()
	sinks, eqs := newSinks(p, w, opts.Collect)
	sched.Run(s.Name(), w, sched.NewStealingPool(taskCount(p), w), sched.Each(func(worker, task int) {
		runTask(p, &sinks[worker], task)
	}))
	res := merge(s.Name(), sinks, eqs)
	sp.End(obs.I("equations", res.Count))
	return res
}

// FineGrained is the paper's PyMP-k: parallelism is pushed inside every
// category's loop, scheduling individual equations of the canonical index
// space across k workers with an OpenMP-style chunk policy. Intra-type
// parallelism makes the worker count independent of the four categories;
// the topological model licenses this by exhibiting β₁ independent cycles.
type FineGrained struct{}

// Name implements Strategy.
func (FineGrained) Name() string { return "pymp" }

// DefaultChunk is the fine-grained chunk size when Options.Chunk is unset:
// large enough to amortize handout synchronization, small enough to
// balance the skewed tail.
const DefaultChunk = 64

// Run implements Strategy.
func (f FineGrained) Run(p *kirchhoff.Problem, opts Options) Result {
	checkProblem(p)
	sp := strategySpan(f.Name())
	w := opts.workers()
	chunk := opts.Chunk
	if chunk < 1 {
		chunk = DefaultChunk
	}
	total := kirchhoff.SystemCensus(p.Array).Equations
	sinks, eqs := newSinks(p, w, opts.Collect)
	sched.Run(f.Name(), w, sched.NewChunker(total, w, opts.Policy, chunk), sched.Each(func(worker, idx int) {
		sinks[worker].emit(p.EquationAt(idx))
	}))
	res := merge(f.Name(), sinks, eqs)
	sp.End(obs.I("equations", res.Count), obs.I("chunk", chunk))
	return res
}

// All returns one instance of every strategy in presentation order.
func All() []Strategy {
	return []Strategy{Serial{}, FourWay{}, Balanced{}, Stealing{}, FineGrained{}}
}

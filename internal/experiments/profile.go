package experiments

import (
	"sort"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/parallel"
	"parma/internal/sched"
)

// ExecProfile parameterizes the simulated executor: what spawning a worker
// costs and what each dynamic chunk handout costs.
type ExecProfile struct {
	// ThreadSpawn is the per-worker startup cost for thread strategies
	// (the paper's Parallel and Balanced Parallel).
	ThreadSpawn time.Duration
	// ProcSpawn is the per-worker startup cost for process strategies
	// (the paper's PyMP).
	ProcSpawn time.Duration
	// ChunkOverhead is the per-chunk handout cost of the work-sharing
	// construct.
	ChunkOverhead time.Duration
	// Chunk is the dynamic chunk size in equations; 0 selects the
	// fine-grained default.
	Chunk int
	// Equation, when nonzero, is the per-equation formation cost the
	// three overheads above are stated against. The TaskTiming simulators
	// then scale every overhead by the measured per-equation cost over
	// Equation, so the modeled crossovers stay at the same n however fast
	// formation runs on the host. Zero keeps the overheads absolute.
	Equation time.Duration
}

// PythonProfile models the relative overheads of the paper's CPython 3.7
// stack, stated against a 500 ns equation and rescaled to the measured
// per-equation speed, so the paper's crossovers land at the same n on any
// host: a thread start costs 4 equations, a fork-based PyMP process 2000
// (~three orders of magnitude more than a chunk handout), and a
// work-sharing handout 2.4, about one small task. Combined with the
// 4-thread structural cap on Parallel/Balanced, this reproduces Figure 6's
// ordering: Balanced-4 and PyMP-32 cross where 2n³·(1/4 − 1/32) ≈ 2000
// equations, n ≈ 17, so Balanced wins at n = 10 (PyMP pays its spawn) and
// PyMP wins from n ≥ 20 on.
var PythonProfile = ExecProfile{
	ThreadSpawn:   2 * time.Microsecond,
	ProcSpawn:     time.Millisecond,
	ChunkOverhead: 1200 * time.Nanosecond,
	Chunk:         256,
	Equation:      500 * time.Nanosecond,
}

// NativeProfile models this Go implementation itself: goroutines all the
// way down, no interpreter lock.
var NativeProfile = ExecProfile{
	ThreadSpawn:   25 * time.Microsecond,
	ProcSpawn:     25 * time.Microsecond,
	ChunkOverhead: 300 * time.Nanosecond,
	Chunk:         parallel.DefaultChunk,
}

// TaskTiming carries the measured serial cost of every (pair, category)
// formation task of one problem, the basis of all schedule simulations.
type TaskTiming struct {
	prob *kirchhoff.Problem
	// Cost[t] is the measured serial duration of task t (pair-major, four
	// categories per pair).
	Cost []time.Duration
	// Eqs[t] is the number of equations task t emits.
	Eqs []int
	// Total is the sum of all task costs — the Single-thread time.
	Total time.Duration
}

// MeasureTasks runs every formation task once, serially, timing each. The
// equations are hashed and discarded, so measurement memory stays flat.
// Each cost includes kirchhoff.Checksum's digest of the task's equations,
// as a strategy's formation pass does; a change to the digest's speed
// shifts every measured profile.
func MeasureTasks(p *kirchhoff.Problem) *TaskTiming {
	nTasks := p.Array.Pairs() * len(kirchhoff.Categories)
	t := &TaskTiming{
		prob: p,
		Cost: make([]time.Duration, nTasks),
		Eqs:  make([]int, nTasks),
	}
	sink := uint64(0)
	cols := p.Array.Cols()
	for task := 0; task < nTasks; task++ {
		pair := task / len(kirchhoff.Categories)
		cat := kirchhoff.Categories[task%len(kirchhoff.Categories)]
		count := 0
		start := time.Now()
		p.FormCategory(pair/cols, pair%cols, cat, func(e kirchhoff.Equation) {
			sink ^= kirchhoff.Checksum(e)
			count++
		})
		t.Cost[task] = time.Since(start)
		t.Eqs[task] = count
		t.Total += t.Cost[task]
	}
	if sink == 42 { // defeat dead-code elimination without output noise
		panic("unreachable")
	}
	return t
}

// scaled returns p with its overheads rescaled to the measured speed when
// p.Equation is set. The measured per-equation cost is the median over
// tasks, so one preempted task does not move every overhead.
func (t *TaskTiming) scaled(p ExecProfile) ExecProfile {
	if p.Equation <= 0 {
		return p
	}
	per := make([]time.Duration, 0, len(t.Cost))
	for task, c := range t.Cost {
		if t.Eqs[task] > 0 {
			per = append(per, c/time.Duration(t.Eqs[task]))
		}
	}
	if len(per) == 0 {
		return p
	}
	sort.Slice(per, func(i, j int) bool { return per[i] < per[j] })
	f := float64(per[len(per)/2]) / float64(p.Equation)
	scale := func(d time.Duration) time.Duration { return time.Duration(float64(d) * f) }
	p.ThreadSpawn = scale(p.ThreadSpawn)
	p.ProcSpawn = scale(p.ProcSpawn)
	p.ChunkOverhead = scale(p.ChunkOverhead)
	return p
}

// SerialTime returns the simulated Single-thread duration.
func (t *TaskTiming) SerialTime() time.Duration { return t.Total }

// FourWayTime simulates the paper's Parallel strategy: four category
// threads, so the makespan is the heaviest category.
func (t *TaskTiming) FourWayTime(p ExecProfile) time.Duration {
	p = t.scaled(p)
	spawn := 4 * p.ThreadSpawn
	var byCat [4]time.Duration
	for task, c := range t.Cost {
		byCat[task%4] += c
	}
	worst := byCat[0]
	for _, d := range byCat[1:] {
		if d > worst {
			worst = d
		}
	}
	return worst + spawn
}

// BalancedTime simulates Balanced Parallel with k threads: deterministic
// LPT assignment using the strategy's analytic cost estimates, with
// makespan computed from the measured costs.
func (t *TaskTiming) BalancedTime(p ExecProfile, k int) time.Duration {
	p = t.scaled(p)
	spawn := time.Duration(k) * p.ThreadSpawn
	bins := sched.BalanceLPT(len(t.Cost), k, func(task int) float64 {
		return parallel.TaskCost(t.prob, task)
	})
	var worst time.Duration
	for _, bin := range bins {
		var load time.Duration
		for _, task := range bin {
			load += t.Cost[task]
		}
		if load > worst {
			worst = load
		}
	}
	return worst + spawn
}

// FineGrainedTime simulates PyMP-k: dynamic chunks of equations handed to k
// worker processes, list-scheduled onto the earliest-free worker, plus
// per-chunk handout overhead and process spawn.
func (t *TaskTiming) FineGrainedTime(p ExecProfile, k int) time.Duration {
	if k < 1 {
		k = 1
	}
	p = t.scaled(p)
	chunk := p.Chunk
	if chunk < 1 {
		chunk = parallel.DefaultChunk
	}
	// Per-equation cost within a task is uniform: cost/eqs.
	// Walk the canonical equation space in task order, cutting chunks.
	workers := make([]time.Duration, k)
	minWorker := func() int {
		best := 0
		for w := 1; w < k; w++ {
			if workers[w] < workers[best] {
				best = w
			}
		}
		return best
	}
	var chunkCost time.Duration
	inChunk := 0
	flush := func() {
		if inChunk == 0 {
			return
		}
		w := minWorker()
		workers[w] += chunkCost + p.ChunkOverhead
		chunkCost, inChunk = 0, 0
	}
	for task, cost := range t.Cost {
		eqs := t.Eqs[task]
		if eqs == 0 {
			continue
		}
		per := cost / time.Duration(eqs)
		for e := 0; e < eqs; e++ {
			chunkCost += per
			inChunk++
			if inChunk == chunk {
				flush()
			}
		}
	}
	flush()
	worst := workers[0]
	for _, d := range workers[1:] {
		if d > worst {
			worst = d
		}
	}
	return worst + p.ProcSpawn
}

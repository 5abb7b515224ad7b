// Package sched provides the scheduling primitives behind Parma's
// parallelization strategies: Run, the tree's one worker fan-out, and the
// Sources it draws from — work-stealing deques, OpenMP-style chunk
// iterators (static, dynamic, guided), and pre-assigned bins filled by a
// deterministic cost-weighted balancer (the paper's Balanced Parallel is
// deterministic by design, trading runtime flexibility for lower switching
// overhead — §IV-C1).
package sched

import (
	"sync"

	"parma/internal/obs"
)

// Deque is a work-stealing double-ended task queue. The owning worker
// pushes and pops at the bottom (LIFO, cache-friendly); idle workers steal
// from the top (FIFO, taking the oldest and typically largest tasks).
// All methods are safe for concurrent use.
type Deque struct {
	mu    sync.Mutex
	tasks []int
}

// Push adds a task at the bottom.
func (d *Deque) Push(task int) {
	d.mu.Lock()
	d.tasks = append(d.tasks, task)
	d.mu.Unlock()
}

// Pop removes the most recently pushed task. It reports false when empty.
func (d *Deque) Pop() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return 0, false
	}
	t := d.tasks[len(d.tasks)-1]
	d.tasks = d.tasks[:len(d.tasks)-1]
	return t, true
}

// Steal removes the oldest task. It reports false when empty.
func (d *Deque) Steal() (int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.tasks) == 0 {
		return 0, false
	}
	t := d.tasks[0]
	d.tasks = d.tasks[1:]
	return t, true
}

// Len returns the current task count.
func (d *Deque) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.tasks)
}

// StealingPool is the work-stealing Source over tasks 0..n−1: one deque per
// worker, seeded round-robin. A worker drains its own deque, then steals
// from the others in cyclic order; it is dry when the whole pool is.
type StealingPool struct {
	deques            []*Deque
	steals, localPops *obs.Counter // nil when obs is disabled
}

// NewStealingPool seeds w deques with tasks 0..n−1 round-robin.
func NewStealingPool(n, w int) *StealingPool {
	if w < 1 {
		w = 1
	}
	p := &StealingPool{deques: make([]*Deque, w),
		steals: obs.GetCounter("sched/steals"), localPops: obs.GetCounter("sched/local_pops")}
	for i := range p.deques {
		p.deques[i] = &Deque{}
	}
	for t := 0; t < n; t++ {
		p.deques[t%w].Push(t)
	}
	return p
}

// Next implements Source, one task per range.
func (p *StealingPool) Next(worker int) (Range, bool) {
	if t, ok := p.deques[worker].Pop(); ok {
		p.localPops.Inc()
		return Range{Lo: t, Hi: t + 1}, true
	}
	w := len(p.deques)
	for off := 1; off < w; off++ {
		if t, ok := p.deques[(worker+off)%w].Steal(); ok {
			p.steals.Inc()
			return Range{Lo: t, Hi: t + 1}, true
		}
	}
	return Range{}, false
}

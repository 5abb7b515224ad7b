package sched

import (
	"fmt"
	"sync"

	"parma/internal/obs"
)

// Source hands ranges of an index space to workers until it is dry. Next
// must be safe for concurrent use by distinct workers. The paper's
// schedules are Sources and nothing else: Chunker (static, dynamic,
// guided), StealingPool, Assigned.
type Source interface {
	Next(worker int) (Range, bool)
}

// Run is the tree's one fan-out: w workers, the caller being worker zero,
// each pull ranges from src and hand them to body until src is dry. It
// returns once every worker has. With w <= 1 nothing is spawned.
//
// A non-empty name asks for one "sched/worker" span per worker, each on its
// own "<name> worker <id>" track. Kernels pass "" and stay silent: they
// run thousands of times per recovery.
func Run(name string, w int, src Source, body func(worker int, r Range)) {
	work := func(id int) {
		var sp obs.Span
		if name != "" && obs.Enabled() {
			sp = obs.StartOn(obs.NewTrack(fmt.Sprintf("%s worker %d", name, id)), "sched/worker")
		}
		ranges := 0
		for r, ok := src.Next(id); ok; r, ok = src.Next(id) {
			ranges++
			body(id, r)
		}
		sp.End(obs.I("worker", id), obs.I("ranges", ranges))
	}
	var wg sync.WaitGroup
	for id := 1; id < w; id++ {
		wg.Add(1)
		go func(id int) { //parmavet:allow poolsize -- this IS the one fan-out: every other worker loop calls Run
			defer wg.Done()
			work(id)
		}(id)
	}
	work(0)
	wg.Wait()
}

// Each adapts a per-index body to Run's per-range one.
func Each(body func(worker, i int)) func(int, Range) {
	return func(worker int, r Range) {
		for i := r.Lo; i < r.Hi; i++ {
			body(worker, i)
		}
	}
}

// Assigned is the pre-assigned Source: worker id gets the tasks of bin id,
// in order, one per Next, and nothing else — no runtime coordination at
// all. It consumes the bins.
type Assigned [][]int

// Next implements Source.
func (a Assigned) Next(worker int) (Range, bool) {
	bin := a[worker]
	if len(bin) == 0 {
		return Range{}, false
	}
	a[worker] = bin[1:]
	return Range{Lo: bin[0], Hi: bin[0] + 1}, true
}

package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

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
// returns once every worker has. With w <= 1 no helper is involved.
//
// Workers 1..w−1 are helpers of a persistent pool: Run takes up to w−1 idle
// ones and spawns only the shortfall, so nested and concurrent Runs, an
// Assigned source and w above GOMAXPROCS always get all w workers. A helper
// that has finished its job spins for spinWindow waiting for the next one,
// then parks; at most GOMAXPROCS−1 helpers stay, the others exit, so with
// GOMAXPROCS 1 nothing spins or stays. The caller, done with its own share,
// spins for the same window on its helpers before it blocks. A fan-out
// allocates nothing once the pool is warm.
//
// A non-empty name asks for one "sched/worker" span per worker, each on its
// own "<name> worker <id>" track. Kernels pass "" and stay silent: they
// run thousands of times per recovery.
func Run(name string, w int, src Source, body func(worker int, r Range)) {
	if w <= 1 {
		j := job{name: name, src: src, body: body}
		j.work(0)
		return
	}
	j := takeJob()
	j.name, j.src, j.body = name, src, body
	j.pending.Store(int32(w - 1))
	for id := 1; id < w; id++ {
		if h := takeHelper(); h != nil {
			h.give(j, id)
			continue
		}
		live.Add(1)
		go (&helper{wake: make(chan struct{}, 1)}).loop(j, id) //parmavet:allow poolsize -- this IS the one fan-out: every other worker loop calls Run, and it spawns only what the idle pool lacks
	}
	j.work(0)
	if runtime.GOMAXPROCS(0) > 1 {
		for start := time.Now(); j.pending.Load() > 0 && time.Since(start) < spinWindow; {
			runtime.Gosched()
		}
	}
	if j.pending.Add(callerParked) != callerParked {
		<-j.done
	}
	j.name, j.src, j.body = "", nil, nil
	pool.mu.Lock()
	pool.jobs = append(pool.jobs, j)
	pool.mu.Unlock()
}

// takeJob returns a finished job, or a new one.
func takeJob() *job {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	k := len(pool.jobs)
	if k == 0 {
		return &job{done: make(chan struct{}, 1)}
	}
	j := pool.jobs[k-1]
	pool.jobs = pool.jobs[:k-1]
	return j
}

// takeHelper takes an idle helper off the free list, or returns nil.
func takeHelper() *helper {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	k := len(pool.idle)
	if k == 0 {
		return nil
	}
	h := pool.idle[k-1]
	pool.idle = pool.idle[:k-1]
	return h
}

// spinWindow is how long an idle helper spins (yielding with
// runtime.Gosched) for its next job before it parks, and how long Run's
// caller spins on its helpers before it blocks. A parked goroutine takes
// tens of µs to wake on the other vCPU, so a pool that parks at once is no
// faster than spawning; the window must span the serial work between two
// fan-outs. In a 64×64 recovery that is one CG iteration's vector work: 30–50
// µs between cross products on a 2-vCPU Xeon VM (go1.24.0). Cold 64×64
// recoveries there, six runs of sixteen per window interleaved in one
// process at GOMAXPROCS 2, took against spawning per fan-out (wall,
// geometric mean of the paired ratios, median over runs / process CPU per
// recovery): 25 µs 1.018 / +5 %, 50 µs 0.927 / +6 %, 75 µs 0.915 / +7 %,
// 100 µs 0.883 / +9 %, 150 µs 0.881 / +6 %. Past 100 µs only the idle tail
// grows.
const spinWindow = 100 * time.Microsecond

// job is one Run's fan-out, shared by its workers and pooled across Runs.
type job struct {
	name    string
	src     Source
	body    func(worker int, r Range)
	pending atomic.Int32  // helpers not yet done, plus callerParked once the caller blocks
	done    chan struct{} // the last helper's token to a blocked caller, cap 1
}

// callerParked marks a job whose caller stopped spinning and waits on done.
// A caller that saw every helper finish takes no token, so no helper's
// send can wake it late onto the helper's own P.
const callerParked = 1 << 30

// work is worker id's whole share: it drains src into body.
func (j *job) work(id int) {
	var sp obs.Span
	if j.name != "" && obs.Enabled() {
		sp = obs.StartOn(obs.NewTrack(fmt.Sprintf("%s worker %d", j.name, id)), "sched/worker")
	}
	ranges := 0
	for r, ok := j.src.Next(id); ok; r, ok = j.src.Next(id) {
		ranges++
		j.body(id, r)
	}
	sp.End(obs.I("worker", id), obs.I("ranges", ranges))
}

// A helper's state: on the free list spinning or parked, or handed a job.
const (
	spinning int32 = iota
	parked
	given
)

// helper is one pooled worker goroutine.
type helper struct {
	state atomic.Int32
	wake  chan struct{} // the hand-off to a parked helper, cap 1
	job   *job          // written by give before the state turns given
	id    int
}

// pool holds the idle helpers and the finished jobs.
var pool struct {
	mu   sync.Mutex
	idle []*helper
	jobs []*job
}

// live counts the helper goroutines, idle or working; the pool tests read it.
var live atomic.Int32

// give hands h, taken off the free list, worker id's share of j.
func (h *helper) give(j *job, id int) {
	h.job, h.id = j, id
	if h.state.Swap(given) == parked {
		h.wake <- struct{}{}
	}
}

// loop runs jobs until h finds the pool full. h is back on the free list
// before its job counts it done, so a caller that fans out again at once
// finds it there.
func (h *helper) loop(j *job, id int) {
	defer live.Add(-1)
	for {
		j.work(id)
		stay := h.free()
		if j.pending.Add(-1) == callerParked {
			j.done <- struct{}{}
		}
		if !stay {
			return
		}
		h.wait()
		j, id = h.job, h.id
	}
}

// free puts h on the free list. It reports false, with h not on the list,
// when GOMAXPROCS−1 helpers are idle already.
func (h *helper) free() bool {
	h.state.Store(spinning)
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if len(pool.idle) >= runtime.GOMAXPROCS(0)-1 {
		return false
	}
	pool.idle = append(pool.idle, h)
	return true
}

// wait returns once h is given a job: it spins for spinWindow, then parks.
func (h *helper) wait() {
	for start := time.Now(); h.state.Load() == spinning && time.Since(start) < spinWindow; {
		runtime.Gosched()
	}
	if h.state.CompareAndSwap(spinning, parked) {
		<-h.wake
	}
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

package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parma/internal/obs"
)

// goroutineID reads the calling goroutine's id off its stack header
// ("goroutine 17 [running]:").
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestRunCoversEverySource is the one table for the one runner: whatever
// the schedule, every index is visited exactly once, every worker id is in
// [0, w), and worker zero is the calling goroutine — so w = 1 spawns
// nothing. Run with -race: perWorker holds plain ints on purpose, so two
// goroutines sharing a worker id is a reported race.
func TestRunCoversEverySource(t *testing.T) {
	sources := []struct {
		name string
		make func(n, w int) Source
	}{
		{"static", func(n, w int) Source { return NewChunker(n, w, Static, 7) }},
		{"dynamic", func(n, w int) Source { return NewChunker(n, w, Dynamic, 7) }},
		{"guided", func(n, w int) Source { return NewChunker(n, w, Guided, 7) }},
		{"stealing", func(n, w int) Source { return NewStealingPool(n, w) }},
		{"assigned", func(n, w int) Source {
			return Assigned(BalanceLPT(n, w, func(i int) float64 { return float64(i%5 + 1) }))
		}},
	}
	for _, sc := range sources {
		for _, w := range []int{1, 2, 3, 8, 100} {
			for _, n := range []int{0, 1, 7, 1000} {
				t.Run(fmt.Sprintf("%s/w=%d/n=%d", sc.name, w, n), func(t *testing.T) {
					caller := goroutineID()
					seen := make([]atomic.Int32, n)
					perWorker := make([]int, w)
					Run("", w, sc.make(n, w), func(worker int, r Range) {
						if worker < 0 || worker >= w {
							t.Errorf("worker id %d outside [0,%d)", worker, w)
							return
						}
						if r.Lo < 0 || r.Hi > n || r.Lo >= r.Hi {
							t.Errorf("bad range %+v for n=%d", r, n)
							return
						}
						if id := goroutineID(); (worker == 0) != (id == caller) {
							t.Errorf("worker %d ran on goroutine %s, caller is %s", worker, id, caller)
						}
						perWorker[worker] += r.Hi - r.Lo
						for i := r.Lo; i < r.Hi; i++ {
							seen[i].Add(1)
						}
					})
					for i := range seen {
						if c := seen[i].Load(); c != 1 {
							t.Fatalf("index %d visited %d times", i, c)
						}
					}
					total := 0
					for _, c := range perWorker {
						total += c
					}
					if total != n {
						t.Fatalf("workers covered %d of %d indices", total, n)
					}
				})
			}
		}
	}
}

// TestRunSpansOnlyWhenNamed: a named run records one sched/worker span per
// worker, each on its own track; an unnamed run records nothing.
func TestRunSpansOnlyWhenNamed(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()
	body := func(int, Range) {}

	Run("", 3, NewChunker(100, 3, Dynamic, 7), body)
	if got := rec.NewTrack("probe"); got != 0 || rec.EventCount() != 0 {
		t.Fatalf("unnamed run opened %d tracks and %d spans", got, rec.EventCount())
	}

	Run("pymp", 3, NewChunker(100, 3, Dynamic, 7), body)
	events := rec.Events()
	if len(events) != 3 {
		t.Fatalf("named run recorded %d spans, want 3", len(events))
	}
	tracks := map[string]bool{}
	for _, ev := range events {
		if ev.Name != "sched/worker" {
			t.Fatalf("span %q, want sched/worker", ev.Name)
		}
		tracks[rec.TrackName(ev.Track)] = true
	}
	for id := 0; id < 3; id++ {
		if name := fmt.Sprintf("pymp worker %d", id); !tracks[name] {
			t.Fatalf("no span on track %q (have %v)", name, tracks)
		}
	}
}

// covered runs Run over n indices at width w on a dynamic chunker and
// reports whether every index was visited exactly once.
func covered(w, n int, inner func()) bool {
	seen := make([]atomic.Int32, n)
	Run("", w, NewChunker(n, w, Dynamic, 3), Each(func(_, i int) {
		seen[i].Add(1)
		if inner != nil {
			inner()
		}
	}))
	for i := range seen {
		if seen[i].Load() != 1 {
			return false
		}
	}
	return true
}

// TestRunConcurrentAndNested: Runs from several goroutines at once, each of
// whose bodies runs a Run of its own, share the one helper pool and each
// still gets all its workers and covers its indices once. Run with -race.
func TestRunConcurrentAndNested(t *testing.T) {
	var wg sync.WaitGroup
	var bad atomic.Int32
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				inner := func() {
					if !covered(2, 9, nil) {
						bad.Add(1)
					}
				}
				if !covered(3, 30, inner) {
					bad.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d runs missed or repeated an index", n)
	}
}

// TestRunAssignedPastGOMAXPROCS: an Assigned source needs every one of its
// w workers, so Run spawns what the idle pool lacks even at w = 4 on two
// Ps, and every bin is consumed.
func TestRunAssignedPastGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for rep := 0; rep < 10; rep++ {
		bins := Assigned(BalanceLPT(40, 4, func(i int) float64 { return float64(i%3 + 1) }))
		var visited atomic.Int32
		Run("", 4, bins, func(worker int, r Range) { visited.Add(int32(r.Hi - r.Lo)) })
		for b, bin := range bins {
			if len(bin) != 0 {
				t.Fatalf("rep %d: bin %d kept %d tasks", rep, b, len(bin))
			}
		}
		if v := visited.Load(); v != 40 {
			t.Fatalf("rep %d: %d of 40 tasks ran", rep, v)
		}
	}
}

// waitFor polls cond, yielding between polls, and fails the test if it
// does not hold within ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: still false after 10 s", what)
		}
	}
}

// idleStates reports how many helpers are on the free list and how many of
// them are parked.
func idleStates() (idle, parkedN int) {
	pool.mu.Lock()
	defer pool.mu.Unlock()
	for _, h := range pool.idle {
		if h.state.Load() == parked {
			parkedN++
		}
	}
	return len(pool.idle), parkedN
}

// TestRunExtraHelpersExit: a Run wider than GOMAXPROCS spawns helpers for
// the difference, and once it returns all but GOMAXPROCS−1 of them exit
// rather than stay parked. The body holds every worker until all eight are
// in, so seven helpers are live at once.
func TestRunExtraHelpersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const w = 8
	var in atomic.Int32
	Run("", w, NewChunker(w, w, Static, 1), func(int, Range) {
		in.Add(1)
		for in.Load() < w {
			runtime.Gosched()
		}
	})
	waitFor(t, "helpers beyond GOMAXPROCS−1 exit", func() bool { return live.Load() <= 1 })
	if idle, _ := idleStates(); idle > 1 {
		t.Fatalf("%d helpers idle at GOMAXPROCS 2, want at most one", idle)
	}
}

// TestRunHelpersPark: after a Run, the helper it leaves idle spins only for
// spinWindow and then parks, so an idle process burns no CPU; the next Run
// wakes it and still covers every index. With GOMAXPROCS 1 no helper stays
// at all.
func TestRunHelpersPark(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for rep := 0; rep < 3; rep++ {
		if !covered(2, 50, nil) {
			t.Fatalf("rep %d: a run missed or repeated an index", rep)
		}
		waitFor(t, "the idle helper parks", func() bool {
			idle, parkedN := idleStates()
			return idle >= 1 && parkedN == idle
		})
	}
	runtime.GOMAXPROCS(1)
	idle, _ := idleStates()
	if !covered(idle+2, 50, nil) { // every idle helper and one spawned
		t.Fatal("a run at GOMAXPROCS 1 missed or repeated an index")
	}
	waitFor(t, "no helper stays at GOMAXPROCS 1", func() bool { return live.Load() == 0 })
}

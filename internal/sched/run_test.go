package sched

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

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

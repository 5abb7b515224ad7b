package sched

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestDequeLIFOAndFIFO(t *testing.T) {
	var d Deque
	for i := 0; i < 3; i++ {
		d.Push(i)
	}
	if v, ok := d.Pop(); !ok || v != 2 {
		t.Fatalf("Pop = %d,%v, want 2,true", v, ok)
	}
	if v, ok := d.Steal(); !ok || v != 0 {
		t.Fatalf("Steal = %d,%v, want 0,true", v, ok)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	if v, ok := d.Pop(); !ok || v != 1 {
		t.Fatalf("Pop = %d,%v, want 1,true", v, ok)
	}
	if _, ok := d.Pop(); ok {
		t.Fatal("Pop on empty deque succeeded")
	}
	if _, ok := d.Steal(); ok {
		t.Fatal("Steal on empty deque succeeded")
	}
}

// TestDequeConcurrentNoLossNoDup hammers the deque from an owner and
// thieves; every task must be executed exactly once. Run with -race.
func TestDequeConcurrentNoLossNoDup(t *testing.T) {
	const n = 10000
	var d Deque
	seen := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // owner: pushes all, then pops
		defer wg.Done()
		for i := 0; i < n; i++ {
			d.Push(i)
		}
		for {
			v, ok := d.Pop()
			if !ok {
				return
			}
			seen[v].Add(1)
		}
	}()
	for th := 0; th < 4; th++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			misses := 0
			for misses < 1000 {
				v, ok := d.Steal()
				if !ok {
					misses++
					continue
				}
				misses = 0
				seen[v].Add(1)
			}
		}()
	}
	wg.Wait()
	for i := range seen {
		if c := seen[i].Load(); c != 1 {
			t.Fatalf("task %d executed %d times", i, c)
		}
	}
}

func TestStaticRangesPartition(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n, w := int(nRaw), int(wRaw%16)+1
		ranges := StaticRanges(n, w)
		if len(ranges) != w {
			return false
		}
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi < r.Lo {
				return false
			}
			covered += r.Hi - r.Lo
			prev = r.Hi
		}
		// Sizes differ by at most 1.
		minSize, maxSize := n, 0
		for _, r := range ranges {
			s := r.Hi - r.Lo
			if s < minSize {
				minSize = s
			}
			if s > maxSize {
				maxSize = s
			}
		}
		return covered == n && prev == n && maxSize-minSize <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkerDynamicChunkSizes(t *testing.T) {
	c := NewChunker(10, 2, Dynamic, 4)
	var sizes []int
	for {
		r, ok := c.Next(0)
		if !ok {
			break
		}
		sizes = append(sizes, r.Hi-r.Lo)
	}
	want := []int{4, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("chunks %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunks %v, want %v", sizes, want)
		}
	}
}

func TestChunkerGuidedShrinks(t *testing.T) {
	c := NewChunker(100, 4, Guided, 2)
	var sizes []int
	for {
		r, ok := c.Next(0)
		if !ok {
			break
		}
		sizes = append(sizes, r.Hi-r.Lo)
	}
	total := 0
	for i, s := range sizes {
		total += s
		if i > 0 && s > sizes[i-1] {
			t.Fatalf("guided chunks grew: %v", sizes)
		}
	}
	if total != 100 {
		t.Fatalf("guided covered %d of 100", total)
	}
	if sizes[0] != 25 { // 100/4
		t.Fatalf("first guided chunk = %d, want 25", sizes[0])
	}
}

func TestChunkerStaticOneShot(t *testing.T) {
	c := NewChunker(10, 3, Static, 1)
	r, ok := c.Next(1)
	if !ok {
		t.Fatal("first static Next failed")
	}
	if _, again := c.Next(1); again {
		t.Fatal("static handed a second range to the same worker")
	}
	if r.Hi-r.Lo < 3 {
		t.Fatalf("worker 1 range %v too small", r)
	}
}

func TestBalanceLPTDeterministicAndComplete(t *testing.T) {
	costs := []float64{10, 1, 1, 1, 8, 2, 2, 7}
	cost := func(i int) float64 { return costs[i] }
	a := BalanceLPT(len(costs), 3, cost)
	b := BalanceLPT(len(costs), 3, cost)
	seen := map[int]bool{}
	for bin := range a {
		if len(a[bin]) != len(b[bin]) {
			t.Fatal("BalanceLPT nondeterministic")
		}
		for k := range a[bin] {
			if a[bin][k] != b[bin][k] {
				t.Fatal("BalanceLPT nondeterministic")
			}
			if seen[a[bin][k]] {
				t.Fatal("task assigned twice")
			}
			seen[a[bin][k]] = true
		}
	}
	if len(seen) != len(costs) {
		t.Fatalf("assigned %d of %d tasks", len(seen), len(costs))
	}
}

// TestBalanceLPTBeatsRoundRobin: on skewed costs (the MEA's two hefty
// intermediate categories vs. tiny source/dest tasks) LPT's imbalance must
// not exceed round-robin's.
func TestBalanceLPTBeatsRoundRobin(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, w := 64, 4
	costs := make([]float64, n)
	for i := range costs {
		if i%16 == 0 {
			costs[i] = 100 + rng.Float64()
		} else {
			costs[i] = 1 + rng.Float64()
		}
	}
	cost := func(i int) float64 { return costs[i] }
	lpt := BalanceLPT(n, w, cost)
	rr := make([][]int, w)
	for i := 0; i < n; i++ {
		rr[i%w] = append(rr[i%w], i)
	}
	if Imbalance(lpt, cost) > Imbalance(rr, cost)+1e-12 {
		t.Fatalf("LPT imbalance %.3f worse than round-robin %.3f",
			Imbalance(lpt, cost), Imbalance(rr, cost))
	}
	if Imbalance(lpt, cost) < 1 {
		t.Fatal("imbalance below 1 is impossible")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil, nil) != 1 {
		t.Fatal("empty assignment imbalance != 1")
	}
	if got := Imbalance([][]int{{}, {}}, func(int) float64 { return 1 }); got != 1 {
		t.Fatalf("all-empty bins imbalance = %g", got)
	}
}

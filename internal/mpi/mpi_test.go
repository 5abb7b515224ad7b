package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"
)

func TestInboxMatching(t *testing.T) {
	ib := newInbox()
	ib.put(message{src: 2, tag: 7, data: []byte("a")})
	ib.put(message{src: 1, tag: 7, data: []byte("b")})
	ib.put(message{src: 1, tag: 9, data: []byte("c")})
	if m, ok := ib.get(1, 7); !ok || string(m.data) != "b" {
		t.Fatalf("get(1,7) = %v,%v", m, ok)
	}
	if m, ok := ib.get(AnySource, 7); !ok || string(m.data) != "a" {
		t.Fatalf("get(any,7) = %v,%v", m, ok)
	}
	if m, ok := ib.get(1, 9); !ok || string(m.data) != "c" {
		t.Fatalf("get(1,9) = %v,%v", m, ok)
	}
}

func TestInboxBlocksUntilPut(t *testing.T) {
	ib := newInbox()
	done := make(chan string, 1)
	go func() {
		m, ok := ib.get(0, 1)
		if !ok {
			done <- "closed"
			return
		}
		done <- string(m.data)
	}()
	time.Sleep(5 * time.Millisecond)
	ib.put(message{src: 0, tag: 1, data: []byte("late")})
	if got := <-done; got != "late" {
		t.Fatalf("got %q", got)
	}
}

func TestInboxCloseUnblocks(t *testing.T) {
	ib := newInbox()
	done := make(chan bool, 1)
	go func() {
		_, ok := ib.get(0, 1)
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	ib.close()
	if <-done {
		t.Fatal("get succeeded on closed empty inbox")
	}
}

func TestPointToPointDelivery(t *testing.T) {
	w := NewWorld(2, CostModel{})
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 5, []byte("hello"))
		}
		data, src, err := c.Recv(0, 5)
		if err != nil {
			return err
		}
		if string(data) != "hello" || src != 0 {
			return fmt.Errorf("got %q from %d", data, src)
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendToSelfFails(t *testing.T) {
	w := NewWorld(1, CostModel{})
	errs := w.Run(func(c *Comm) error {
		return c.Send(0, 1, nil)
	})
	if FirstError(errs) == nil {
		t.Fatal("self-send succeeded")
	}
}

func TestBcastAllSizes(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 16, 33} {
		w := NewWorld(size, CostModel{})
		var mu sync.Mutex
		got := make(map[int]string)
		errs := w.Run(func(c *Comm) error {
			var payload []byte
			if c.Rank() == 0 {
				payload = []byte("broadcast-payload")
			}
			data, err := c.Bcast(0, payload)
			if err != nil {
				return err
			}
			mu.Lock()
			got[c.Rank()] = string(data)
			mu.Unlock()
			return nil
		})
		if err := FirstError(errs); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for r := 0; r < size; r++ {
			if got[r] != "broadcast-payload" {
				t.Fatalf("size %d: rank %d got %q", size, r, got[r])
			}
		}
	}
}

func TestReduceAndAllreduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 5, 9, 16} {
		w := NewWorld(size, CostModel{})
		wantTotal := float64(size*(size-1)) / 2 // Σ ranks
		errs := w.Run(func(c *Comm) error {
			mine := []float64{float64(c.Rank()), 1}
			root, err := c.ReduceSum(mine)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				if math.Abs(root[0]-wantTotal) > 1e-12 || math.Abs(root[1]-float64(size)) > 1e-12 {
					return fmt.Errorf("root sum = %v", root)
				}
			} else if root != nil {
				return fmt.Errorf("non-root received reduce result")
			}
			all, err := c.AllreduceSum([]float64{float64(c.Rank())})
			if err != nil {
				return err
			}
			if math.Abs(all[0]-wantTotal) > 1e-12 {
				return fmt.Errorf("allreduce = %v, want %v", all[0], wantTotal)
			}
			return nil
		})
		if err := FirstError(errs); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const size = 8
	w := NewWorld(size, CostModel{})
	var before sync.WaitGroup
	before.Add(size)
	reached := make(chan int, size)
	errs := w.Run(func(c *Comm) error {
		before.Done()
		before.Wait() // everyone alive
		if err := c.Barrier(); err != nil {
			return err
		}
		reached <- c.Rank()
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	if len(reached) != size {
		t.Fatalf("%d ranks passed the barrier", len(reached))
	}
}

func TestCostModelAccrual(t *testing.T) {
	model := CostModel{Latency: time.Millisecond, BandwidthBytesPerSec: 1e6, RankStartup: 10 * time.Millisecond}
	// 1,000-byte message: 1 ms latency + 1 ms transfer.
	if got := model.cost(1000); got != 2*time.Millisecond {
		t.Fatalf("cost(1000) = %v, want 2ms", got)
	}
	w := NewWorld(2, model)
	times, errs := w.RunCollect(func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 1, make([]byte, 1000))
		}
		_, _, err := c.Recv(0, 1)
		c.ChargeCompute(5 * time.Millisecond)
		return err
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	// Rank 1: 10 ms startup + 2 ms recv + 5 ms compute = 17 ms.
	if got := times.Compute[1] + times.Comm[1]; math.Abs(got-0.017) > 1e-9 {
		t.Fatalf("rank 1 simulated total = %v, want 0.017", got)
	}
	if times.Makespan() < 0.017 {
		t.Fatalf("makespan %v below rank-1 total", times.Makespan())
	}
}

func TestWorldRecoversPanics(t *testing.T) {
	w := NewWorld(2, CostModel{})
	errs := w.Run(func(c *Comm) error {
		if c.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if errs[1] == nil {
		t.Fatal("panic not converted to error")
	}
	if errs[0] != nil {
		t.Fatalf("rank 0 failed: %v", errs[0])
	}
}

// TestRandomizedExchange stresses matching: every rank sends one message to
// every other rank with a rank-derived tag; all must arrive intact.
func TestRandomizedExchange(t *testing.T) {
	const size = 7
	w := NewWorld(size, CostModel{})
	errs := w.Run(func(c *Comm) error {
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		order := rng.Perm(size)
		for _, dst := range order {
			if dst == c.Rank() {
				continue
			}
			payload := []byte{byte(c.Rank()), byte(dst)}
			if err := c.Send(dst, 100+c.Rank(), payload); err != nil {
				return err
			}
		}
		for src := 0; src < size; src++ {
			if src == c.Rank() {
				continue
			}
			data, from, err := c.Recv(src, 100+src)
			if err != nil {
				return err
			}
			if from != src || data[0] != byte(src) || data[1] != byte(c.Rank()) {
				return fmt.Errorf("rank %d: bad message from %d: %v", c.Rank(), src, data)
			}
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"parma/internal/obs"
)

// runTCPWorld spins up a coordinator plus size in-process ranks over real
// TCP loopback connections and runs fn SPMD.
func runTCPWorld(t *testing.T, size int, fn func(c *Comm) error) {
	t.Helper()
	co, err := NewCoordinator("127.0.0.1:0", size)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(context.Background()) }()

	var wg sync.WaitGroup
	errs := make([]error, size)
	for r := 0; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, closeFn, err := DialTCP(co.Addr(), r, size, CostModel{})
			if err != nil {
				errs[r] = err
				return
			}
			defer closeFn()
			errs[r] = fn(comm)
		}(r)
	}
	wg.Wait()
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not terminate")
	}
}

func TestTCPPointToPoint(t *testing.T) {
	runTCPWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 3, []byte("over tcp"))
		}
		data, src, err := c.Recv(0, 3)
		if err != nil {
			return err
		}
		if string(data) != "over tcp" || src != 0 {
			return fmt.Errorf("got %q from %d", data, src)
		}
		return nil
	})
}

func TestTCPCollectives(t *testing.T) {
	const size = 5
	runTCPWorld(t, size, func(c *Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		all, err := c.AllreduceSum([]float64{float64(c.Rank() + 1)})
		if err != nil {
			return err
		}
		want := float64(size*(size+1)) / 2
		if math.Abs(all[0]-want) > 1e-12 {
			return fmt.Errorf("allreduce = %v, want %v", all[0], want)
		}
		var payload []byte
		if c.Rank() == 0 {
			payload = []byte("cfg")
		}
		data, err := c.Bcast(0, payload)
		if err != nil {
			return err
		}
		if string(data) != "cfg" {
			return fmt.Errorf("bcast got %q", data)
		}
		return nil
	})
}

func TestTCPLargePayload(t *testing.T) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	runTCPWorld(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			return c.Send(1, 9, big)
		}
		data, _, err := c.Recv(0, 9)
		if err != nil {
			return err
		}
		if len(data) != len(big) {
			return fmt.Errorf("got %d bytes, want %d", len(data), len(big))
		}
		for i := range data {
			if data[i] != big[i] {
				return fmt.Errorf("corruption at byte %d", i)
			}
		}
		return nil
	})
}

func TestCoordinatorRejectsBadRank(t *testing.T) {
	co, err := NewCoordinator("127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(context.Background()) }()
	if _, _, err := DialTCP(co.Addr(), 7, 2, CostModel{}); err != nil {
		t.Fatalf("dial itself should succeed, handshake happens server-side: %v", err)
	}
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("coordinator accepted an out-of-range rank")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not reject the bad rank")
	}
}

// dialRaw opens a raw framed connection to the coordinator and performs
// the rank handshake, bypassing DialTCP so tests can drive the wire
// protocol directly.
func dialRaw(t *testing.T, addr string, rank int) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(int32(rank)))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestCoordinatorSeversDestinationOnWriteError: when a write to a
// destination fails, the stream may be desynchronized by a partial frame,
// so the coordinator must sever that connection — not leave it half
// written — while continuing to route for the survivors and still
// terminating cleanly (a deliberately severed conn is not an error).
func TestCoordinatorSeversDestinationOnWriteError(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	co, err := NewCoordinator("127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve(context.Background()) }()

	conns := make([]net.Conn, 3)
	for r := range conns {
		conns[r] = dialRaw(t, co.Addr(), r)
	}

	// Rank 2 crashes. Rank 0 keeps sending to it until the coordinator's
	// writes start failing (the first may land in the kernel buffer before
	// the RST arrives); each failure must be counted and must not take the
	// routing loop down.
	conns[2].Close()
	undeliverable := rec.Registry().Counter("mpi/coordinator_undeliverable")
	deadline := time.After(5 * time.Second)
	for undeliverable.Value() == 0 {
		if err := writeFrame(conns[0], 2, 0, 4, []byte("doomed")); err != nil {
			t.Fatalf("rank 0's own connection failed: %v", err)
		}
		select {
		case <-deadline:
			t.Fatal("coordinator never observed a write error to the crashed rank")
		case <-time.After(time.Millisecond):
		}
	}

	// Survivor traffic still flows.
	if err := writeFrame(conns[0], 1, 0, 7, []byte("alive")); err != nil {
		t.Fatal(err)
	}
	_, src, tag, payload, err := readFrame(bufio.NewReader(conns[1]))
	if err != nil || src != 0 || tag != 7 || string(payload) != "alive" {
		t.Fatalf("survivor frame = (src=%d tag=%d %q, %v), want (0, 7, \"alive\")", src, tag, payload, err)
	}

	// Clean shutdown: the severed destination must not surface as a Serve
	// error, only genuine protocol violations should.
	conns[0].Close()
	conns[1].Close()
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("coordinator error after sever: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coordinator did not terminate after survivors closed")
	}
}

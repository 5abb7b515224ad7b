// Package mpi provides a message-passing runtime standing in for the
// paper's mpi4py/MPICH deployment (§V-F): ranks, point-to-point send and
// receive with (source, tag) matching, and tree-based collectives. Two
// transports exist — in-process goroutine ranks for single-machine runs and
// simulations, and TCP for genuine multi-process operation — plus a LogP-
// style cost model that accrues simulated communication time per rank, so
// strong-scaling experiments up to 1,024 ranks can be evaluated faithfully
// on a laptop-class machine. As under MPICH, nothing is retried: a failed
// send, a closed inbox or a severed connection comes back from the
// operation as an error, and cmd/parma-mpi's launcher ends the job when a
// rank process dies.
package mpi

import (
	"fmt"
	"sync"
)

// AnySource matches messages from every rank in Recv.
const AnySource = -1

// message is one in-flight point-to-point payload.
type message struct {
	src, tag int
	data     []byte
}

// inbox is a blocking mailbox with MPI-style (source, tag) matching:
// unmatched arrivals are stashed until a matching Recv claims them.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	stash  []message
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

// put delivers a message and wakes matching receivers. Delivery to a
// closed inbox is rejected with an error (the world has already shut the
// destination rank down).
func (ib *inbox) put(m message) error {
	ib.mu.Lock()
	if ib.closed {
		ib.mu.Unlock()
		return fmt.Errorf("mpi: send from rank %d to a closed inbox (tag %d)", m.src, m.tag)
	}
	ib.stash = append(ib.stash, m)
	ib.mu.Unlock()
	ib.cond.Broadcast()
	return nil
}

// get blocks until a message matching (src, tag) is available and removes
// it. src may be AnySource. The second result is false if the inbox closes
// first.
func (ib *inbox) get(src, tag int) (message, bool) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i, m := range ib.stash {
			if (src == AnySource || m.src == src) && m.tag == tag {
				ib.stash = append(ib.stash[:i], ib.stash[i+1:]...)
				return m, true
			}
		}
		if ib.closed {
			return message{}, false
		}
		ib.cond.Wait()
	}
}

// close wakes all blocked receivers; subsequent gets fail once drained.
func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

// Transport moves bytes between ranks. Implementations must be safe for
// concurrent use by the owning rank.
type Transport interface {
	// Send delivers data to rank dst with the given tag. It must not
	// retain data after returning.
	Send(dst, tag int, data []byte) error
	// Recv blocks for a message from src (or AnySource) with the tag and
	// returns it with its actual source.
	Recv(src, tag int) (data []byte, actualSrc int, err error)
}

// chanTransport is the in-process transport: a shared inbox table.
type chanTransport struct {
	rank    int
	inboxes []*inbox
}

func (t *chanTransport) Send(dst, tag int, data []byte) error {
	if dst < 0 || dst >= len(t.inboxes) {
		return fmt.Errorf("mpi: send to rank %d outside world of %d", dst, len(t.inboxes))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return t.inboxes[dst].put(message{src: t.rank, tag: tag, data: cp})
}

func (t *chanTransport) Recv(src, tag int) ([]byte, int, error) {
	m, ok := t.inboxes[t.rank].get(src, tag)
	if !ok {
		return nil, 0, fmt.Errorf("mpi: rank %d inbox closed while waiting for src=%d tag=%d", t.rank, src, tag)
	}
	return m.data, m.src, nil
}

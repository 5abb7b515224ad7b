package mpi

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"

	"parma/internal/obs"
)

// The TCP transport routes messages through a coordinator process in a star
// topology: each rank opens one connection, announces its rank, and sends
// framed (dst, tag, payload) envelopes; the coordinator forwards each frame
// to the destination rank's connection. This keeps rank processes free of
// pairwise connection management while remaining a genuine multi-process
// message-passing fabric (cmd/parma-mpi builds on it).

// frame layout: dst(4) src(4) tag(4) len(4) payload(len), all little-endian.

func writeFrame(w io.Writer, dst, src, tag int, payload []byte) error {
	var hdr [16]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(dst))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(src))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(tag))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) (dst, src, tag int, payload []byte, err error) {
	var hdr [16]byte
	if _, err = io.ReadFull(r, hdr[:]); err != nil {
		return
	}
	dst = int(int32(binary.LittleEndian.Uint32(hdr[0:])))
	src = int(int32(binary.LittleEndian.Uint32(hdr[4:])))
	tag = int(int32(binary.LittleEndian.Uint32(hdr[8:])))
	n := binary.LittleEndian.Uint32(hdr[12:])
	if n > 1<<30 {
		err = fmt.Errorf("mpi: frame of %d bytes exceeds limit", n)
		return
	}
	payload = make([]byte, n)
	_, err = io.ReadFull(r, payload)
	return
}

// Coordinator accepts rank connections and routes frames between them.
type Coordinator struct {
	ln    net.Listener
	size  int
	conns []net.Conn
	wmu   []sync.Mutex // serialize writes per destination connection
}

// NewCoordinator listens on addr (e.g. "127.0.0.1:0") for size ranks.
func NewCoordinator(addr string, size int) (*Coordinator, error) {
	if size < 1 {
		return nil, fmt.Errorf("mpi: invalid world size %d", size)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("mpi: coordinator listen: %w", err)
	}
	return &Coordinator{ln: ln, size: size, conns: make([]net.Conn, size), wmu: make([]sync.Mutex, size)}, nil
}

// Addr returns the listening address for ranks to dial.
func (co *Coordinator) Addr() string { return co.ln.Addr().String() }

// Serve accepts all ranks, routes traffic until every connection closes,
// then returns. It must run on its own goroutine (or process). Cancelling
// ctx while Serve still waits for ranks to connect closes the listener, and
// Serve returns the accept error; once routing, it returns when the last
// rank's connection closes.
func (co *Coordinator) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { co.ln.Close() })
	defer stop()
	for i := 0; i < co.size; i++ {
		conn, err := co.ln.Accept()
		if err != nil {
			return fmt.Errorf("mpi: coordinator accept: %w", err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return fmt.Errorf("mpi: coordinator hello: %w", err)
		}
		rank := int(int32(binary.LittleEndian.Uint32(hello[:])))
		if rank < 0 || rank >= co.size || co.conns[rank] != nil {
			conn.Close()
			return fmt.Errorf("mpi: bad or duplicate rank %d", rank)
		}
		co.conns[rank] = conn
	}
	co.ln.Close()

	var wg sync.WaitGroup
	errs := make([]error, co.size)
	for rank, conn := range co.conns {
		wg.Add(1)
		go func(rank int, conn net.Conn) {
			defer wg.Done()
			br := bufio.NewReader(conn)
			for {
				dst, src, tag, payload, err := readFrame(br)
				if err != nil {
					// EOF is a clean shutdown; ErrClosed means the routing
					// side below severed this connection deliberately.
					if err != io.EOF && !errors.Is(err, net.ErrClosed) {
						errs[rank] = err
					}
					return
				}
				if dst < 0 || dst >= co.size {
					errs[rank] = fmt.Errorf("mpi: rank %d sent to invalid dst %d", rank, dst)
					return
				}
				co.wmu[dst].Lock()
				err = writeFrame(co.conns[dst], dst, src, tag, payload)
				if err != nil {
					// A dead destination (crashed rank) must not take the
					// whole fabric down: count the undeliverable frame and
					// keep routing for the survivors. The write may have been
					// partial, leaving dst's byte stream desynchronized, so
					// sever the connection — later frames would be parsed as
					// garbage, and a closed conn fails fast and cleanly.
					obs.Add("mpi/coordinator_undeliverable", 1)
					_ = co.conns[dst].Close()
				}
				co.wmu[dst].Unlock()
			}
		}(rank, conn)
	}
	wg.Wait()
	for _, conn := range co.conns {
		conn.Close()
	}
	return FirstError(errs)
}

// tcpTransport is a rank's connection to the coordinator. Incoming frames
// are pumped into an inbox for (src, tag) matching.
type tcpTransport struct {
	rank     int
	conn     net.Conn
	wmu      sync.Mutex
	in       *inbox
	dropOnce sync.Once
}

// pump moves frames from the wire into the inbox until the connection
// breaks. Frames arriving after the inbox has closed (shutdown race, or a
// peer still flushing) are counted and logged once instead of silently
// vanishing, and the pump keeps draining the connection so the peer's
// writes never block on a full socket buffer.
func (t *tcpTransport) pump(r io.Reader) {
	br := bufio.NewReader(r)
	for {
		_, src, tag, payload, err := readFrame(br)
		if err != nil {
			t.in.close()
			return
		}
		if err := t.in.put(message{src: src, tag: tag, data: payload}); err != nil {
			obs.Add("mpi/dropped_frames", 1)
			t.dropOnce.Do(func() {
				log.Printf("mpi: rank %d dropping frames arriving after inbox close (first: src=%d tag=%d, %d bytes); counting in mpi/dropped_frames", t.rank, src, tag, len(payload))
			})
		}
	}
}

// DialTCP connects rank to a coordinator and returns a Comm over the TCP
// transport. The returned close function shuts the connection down;
// pending Recvs fail.
func DialTCP(addr string, rank, size int, model CostModel) (*Comm, func() error, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("mpi: rank %d dial: %w", rank, err)
	}
	var hello [4]byte
	binary.LittleEndian.PutUint32(hello[:], uint32(rank))
	if _, err := conn.Write(hello[:]); err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("mpi: rank %d hello: %w", rank, err)
	}
	tr := &tcpTransport{rank: rank, conn: conn, in: newInbox()}
	go tr.pump(conn)
	return newComm(tr, rank, size, model), conn.Close, nil
}

func (t *tcpTransport) Send(dst, tag int, data []byte) error {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	return writeFrame(t.conn, dst, t.rank, tag, data)
}

func (t *tcpTransport) Recv(src, tag int) ([]byte, int, error) {
	m, ok := t.in.get(src, tag)
	if !ok {
		return nil, 0, fmt.Errorf("mpi: rank %d connection closed while waiting for src=%d tag=%d", t.rank, src, tag)
	}
	return m.data, m.src, nil
}

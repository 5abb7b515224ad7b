package mpi

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"parma/internal/obs"
)

// twoComms builds a pair of connected in-process comms for transport-level
// tests, bypassing World so each side's trace layer can be set up
// differently.
func twoComms() (*Comm, *Comm, func()) {
	inboxes := []*inbox{newInbox(), newInbox()}
	c0 := &Comm{rank: 0, size: 2, track: obs.AnonTrack, tr: &chanTransport{rank: 0, inboxes: inboxes}}
	c1 := &Comm{rank: 1, size: 2, track: obs.AnonTrack, tr: &chanTransport{rank: 1, inboxes: inboxes}}
	return c0, c1, func() {
		for _, ib := range inboxes {
			ib.close()
		}
	}
}

func TestTraceEnvelopeRoundTripAndAdoption(t *testing.T) {
	c0, c1, done := twoComms()
	defer done()

	seed := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	c0.EnableTracePropagation(seed)
	c1.EnableTracePropagation(obs.TraceContext{}) // un-seeded: must adopt

	payload := []byte("formation rows")
	errc := make(chan error, 1)
	go func() { errc <- c0.Send(1, 7, payload) }()
	got, src, err := c1.Recv(0, 7)
	if err != nil {
		t.Fatalf("Recv: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
	if src != 0 || !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through the envelope: %q from %d", got, src)
	}
	if tc := c1.TraceContext(); tc.Trace != seed.Trace {
		t.Fatalf("rank 1 did not adopt the trace: %+v", tc)
	}
	if c1.TraceContext().Span != seed.Span {
		t.Fatalf("adopted parent span %s, want origin %s", c1.TraceContext().Span, seed.Span)
	}
}

func TestTraceEnvelopeStrictFraming(t *testing.T) {
	c0, c1, done := twoComms()
	defer done()
	// Only the receiver has the layer: the raw frame must be rejected, not
	// silently mis-parsed.
	c1.EnableTracePropagation(obs.TraceContext{})
	errc := make(chan error, 1)
	go func() { errc <- c0.Send(1, 3, []byte("raw")) }()
	if _, _, err := c1.Recv(0, 3); err == nil || !strings.Contains(err.Error(), "envelope") {
		t.Fatalf("raw frame accepted by traced receiver: %v", err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("Send: %v", err)
	}
}

func TestTraceEnvelopeStatsChargePayloadOnly(t *testing.T) {
	c0, c1, done := twoComms()
	defer done()
	c0.EnableTracePropagation(obs.TraceContext{Trace: obs.NewTraceID()})
	c1.EnableTracePropagation(obs.TraceContext{})
	go func() { _ = c0.Send(1, 1, make([]byte, 128)) }()
	if _, _, err := c1.Recv(0, 1); err != nil {
		t.Fatal(err)
	}
	if c0.Stats().BytesSent != 128 || c1.Stats().BytesRecv != 128 {
		t.Fatalf("envelope leaked into traffic accounting: sent %d recv %d",
			c0.Stats().BytesSent, c1.Stats().BytesRecv)
	}
}

// Trace propagation must survive the full resilience stack: chaos faults
// under a reliable layer, with the envelope sealing only user payloads. The
// comms are seeded as parma-mpi seeds its rank processes: rank 0 mints the
// job trace with its root span, and the peers adopt it from the frames they
// receive.
func TestTracePropagationUnderChaosStack(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()

	const size = 3
	chaos := ChaosSpec{Seed: 42, DropP: 0.2, CrashRank: -1, PartitionA: -1}
	rel := fastReliable()
	inboxes := make([]*inbox, size)
	comms := make([]*Comm, size)
	for rank := range comms {
		inboxes[rank] = newInbox()
	}
	for rank := range comms {
		comms[rank], _ = newComm(&chanTransport{rank: rank, inboxes: inboxes}, rank, size, CostModel{}, &chaos, &rel)
		comms[rank].EnableTracePropagation(obs.TraceContext{})
	}
	root := comms[0].StartRootSpan("mpi/job")

	// As in World.Run, each rank keeps draining its reliable transport
	// until every rank is done, so a lost final ack strands no peer.
	errs := make([]error, size)
	var working, draining sync.WaitGroup
	stop := make(chan struct{})
	for rank, c := range comms {
		working.Add(1)
		draining.Add(1)
		go func() {
			defer draining.Done()
			for i := 0; i < 5 && errs[rank] == nil; i++ {
				_, errs[rank] = c.AllreduceSum([]float64{1, 2, 3})
			}
			working.Done()
			c.rel.drain(stop)
		}()
	}
	working.Wait()
	close(stop)
	draining.Wait()
	root.End()
	for _, c := range comms {
		if err := c.tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ib := range inboxes {
		ib.close()
	}
	if err := FirstError(errs); err != nil {
		t.Fatalf("chaotic allreduce: %v", err)
	}
	for _, c := range comms[1:] {
		if c.TraceContext().Trace != root.Trace() {
			t.Fatalf("rank %d did not adopt the job trace through the chaos stack", c.Rank())
		}
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateDistributedTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateDistributedTrace: %v", err)
	}
	if len(sum.Trees) != 1 || sum.Trees[0].Root != "mpi/job" {
		t.Fatalf("chaos broke the span tree: %+v", sum.Trees)
	}
	// Rank 0 alone contributes its root plus an allreduce and a reduce span
	// per round; anything beyond that is a peer's span that joined the tree.
	if own := 1 + 5*2; sum.Trees[0].Spans <= own {
		t.Fatalf("tree has %d spans, none from the peers", sum.Trees[0].Spans)
	}
}

func TestPlainRunStillWorksWhenObserved(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()
	w := NewWorld(2, CostModel{})
	errs := w.Run(func(c *Comm) error {
		_, err := c.Bcast(0, []byte("x"))
		return err
	})
	if err := FirstError(errs); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

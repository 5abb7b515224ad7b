package mpi

import (
	"bytes"
	"strings"
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

// TestWorldRunIsOneTrace: under recording, an in-process run is one span
// tree, as a parma-mpi launch is. Rank 0's mpi/rank span is the root, and
// every rank's mpi/rank span and the collective spans under it join it.
func TestWorldRunIsOneTrace(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()

	const size, rounds = 3, 4
	errs := NewWorld(size, CostModel{}).Run(func(c *Comm) error {
		for i := 0; i < rounds; i++ {
			if _, err := c.AllreduceSum([]float64{1, 2, 3}); err != nil {
				return err
			}
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatalf("allreduce: %v", err)
	}

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	sum, err := obs.ValidateDistributedTrace(buf.Bytes())
	if err != nil {
		t.Fatalf("ValidateDistributedTrace: %v", err)
	}
	if len(sum.Trees) != 1 || sum.Trees[0].Root != "mpi/rank" || sum.Untraced != 0 {
		t.Fatalf("want one mpi/rank tree and no untraced spans, got %+v", sum)
	}
	// Each rank records its mpi/rank span plus an allreduce and a reduce
	// span per round; the tree must hold all of them.
	if want := size * (1 + 2*rounds); sum.Trees[0].Spans != want {
		t.Fatalf("tree has %d spans, want %d from %d ranks", sum.Trees[0].Spans, want, size)
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

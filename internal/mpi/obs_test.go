package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"parma/internal/obs"
)

// TestCommStatsMatchCostModel checks the accounting identity behind the
// observability counters: every message the cost model charges is counted
// exactly once in CommStats, so each rank's simulated communication time
// equals CostModel.Traffic over its recorded (msgs, bytes) — up to 1 ns of
// float truncation per message — and the per-rank counters flushed into the
// obs registry agree with the in-Comm stats. Exercised over Bcast and
// Reduce (via Allreduce) on a non-power-of-two world.
func TestCommStatsMatchCostModel(t *testing.T) {
	model := CostModel{Latency: time.Microsecond, BandwidthBytesPerSec: 1e9}
	const ranks = 5

	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	var mu sync.Mutex
	stats := make([]CommStats, ranks)
	simComm := make([]time.Duration, ranks)

	w := NewWorld(ranks, model)
	errs := w.Run(func(c *Comm) error {
		var payload []byte
		if c.Rank() == 0 {
			payload = make([]byte, 1<<10)
		}
		if _, err := c.Bcast(0, payload); err != nil {
			return err
		}
		if _, err := c.AllreduceSum(make([]float64, 8)); err != nil {
			return err
		}
		mu.Lock()
		stats[c.Rank()] = c.Stats()
		simComm[c.Rank()] = c.SimCommTime()
		mu.Unlock()
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}

	var total CommStats
	for r, st := range stats {
		if st.MsgsSent == 0 && st.MsgsRecv == 0 {
			t.Fatalf("rank %d moved no messages", r)
		}
		msgs := st.MsgsSent + st.MsgsRecv
		bytes := st.BytesSent + st.BytesRecv
		want := model.Traffic(msgs, bytes)
		diff := simComm[r] - want
		if diff < 0 {
			diff = -diff
		}
		// Each per-message bandwidth term truncates independently, so the
		// aggregate may drift by up to 1 ns per charged message.
		if diff > time.Duration(msgs)*time.Nanosecond {
			t.Errorf("rank %d: simComm %v but Traffic(%d msgs, %d bytes) = %v",
				r, simComm[r], msgs, bytes, want)
		}
		total.MsgsSent += st.MsgsSent
		total.BytesSent += st.BytesSent
		total.MsgsRecv += st.MsgsRecv
		total.BytesRecv += st.BytesRecv
	}

	// Conservation: every completed collective's sends are received.
	if total.MsgsSent != total.MsgsRecv || total.BytesSent != total.BytesRecv {
		t.Errorf("traffic not conserved: sent %d msgs/%d bytes, received %d msgs/%d bytes",
			total.MsgsSent, total.BytesSent, total.MsgsRecv, total.BytesRecv)
	}

	// The flushed registry counters must agree with the in-Comm stats.
	reg := rec.Registry()
	for r, st := range stats {
		checks := []struct {
			name string
			want int64
		}{
			{counterName(r, "msgs_sent"), st.MsgsSent},
			{counterName(r, "bytes_sent"), st.BytesSent},
			{counterName(r, "msgs_recv"), st.MsgsRecv},
			{counterName(r, "bytes_recv"), st.BytesRecv},
		}
		for _, ck := range checks {
			if got := reg.Counter(ck.name).Value(); got != ck.want {
				t.Errorf("counter %s = %d, want %d", ck.name, got, ck.want)
			}
		}
	}
	if got := reg.Counter("mpi/msgs_sent").Value(); got != total.MsgsSent {
		t.Errorf("mpi/msgs_sent = %d, want %d", got, total.MsgsSent)
	}
	if got := reg.Counter("mpi/bytes_sent").Value(); got != total.BytesSent {
		t.Errorf("mpi/bytes_sent = %d, want %d", got, total.BytesSent)
	}

	// Each rank's timeline must carry the collective spans.
	names := map[string]bool{}
	for _, ev := range rec.Events() {
		names[ev.Name] = true
	}
	for _, want := range []string{"mpi/rank", "mpi/bcast", "mpi/reduce", "mpi/allreduce"} {
		if !names[want] {
			t.Errorf("no %q span recorded", want)
		}
	}
}

func counterName(rank int, suffix string) string {
	return fmt.Sprintf("mpi/rank%d/%s", rank, suffix)
}

// TestSendValidation covers the error paths that used to be silent or
// panicking: out-of-world destinations and sources, and delivery to a rank
// whose inbox has already shut down.
func TestSendValidation(t *testing.T) {
	w := NewWorld(2, CostModel{})
	errs := w.Run(func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if err := c.Send(5, 1, nil); err == nil {
			return fmt.Errorf("send outside world accepted")
		}
		if err := c.Send(-1, 1, nil); err == nil {
			return fmt.Errorf("send to negative rank accepted")
		}
		if _, _, err := c.Recv(7, 1); err == nil {
			return fmt.Errorf("recv from rank outside world accepted")
		}
		return nil
	})
	if err := FirstError(errs); err != nil {
		t.Fatal(err)
	}
}

func TestSendToClosedInboxErrors(t *testing.T) {
	ib := newInbox()
	ib.close()
	if err := ib.put(message{src: 1, tag: 3}); err == nil {
		t.Fatal("put into closed inbox succeeded")
	}
	tr := &chanTransport{rank: 0, inboxes: []*inbox{newInbox(), ib}}
	if err := tr.Send(1, 3, []byte("x")); err == nil {
		t.Fatal("Send to closed inbox succeeded")
	}
}

// errTransportDown is the error every failTransport operation returns.
var errTransportDown = errors.New("transport down")

// failTransport errors on every operation, forcing the collective error
// paths.
type failTransport struct{}

func (failTransport) Send(dst, tag int, data []byte) error   { return errTransportDown }
func (failTransport) Recv(src, tag int) ([]byte, int, error) { return nil, 0, errTransportDown }

// TestBarrierRecordsSpanOnError is the regression test for a span leak the
// spanend analyzer found: Barrier returned on the reduce error path before
// ending its "mpi/barrier" span, so failed barriers left no trace evidence.
// The span must be recorded even when Barrier errors.
func TestBarrierRecordsSpanOnError(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	c := &Comm{rank: 0, size: 2, tr: failTransport{}, track: obs.AnonTrack}
	if err := c.Barrier(); err == nil {
		t.Fatal("Barrier over a dead transport succeeded")
	}
	for _, ev := range rec.Events() {
		if ev.Name == "mpi/barrier" {
			return
		}
	}
	t.Fatal("failed Barrier left no mpi/barrier span; the error path leaked the span")
}

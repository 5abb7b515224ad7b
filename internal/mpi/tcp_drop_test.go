package mpi

import (
	"net"
	"testing"
	"time"

	"parma/internal/obs"
)

// TestPumpCountsDropsAfterInboxClose is the regression test for the silent
// message drop in the TCP pump: frames arriving after the rank's inbox has
// closed used to vanish without a trace, and the pump stopped reading,
// which could wedge the peer's writes. Now each drop is counted in the
// mpi/dropped_frames counter and the pump keeps draining the connection.
func TestPumpCountsDropsAfterInboxClose(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()

	client, server := net.Pipe()
	defer client.Close()
	tr := &tcpTransport{rank: 1, conn: server, in: newInbox()}
	pumpDone := make(chan struct{})
	go func() {
		tr.pump(server)
		close(pumpDone)
	}()

	// Sanity: a frame delivered before close reaches the inbox.
	if err := writeFrame(client, 1, 0, 7, []byte("pre-close")); err != nil {
		t.Fatal(err)
	}
	data, src, err := tr.Recv(0, 7)
	if err != nil || src != 0 || string(data) != "pre-close" {
		t.Fatalf("pre-close recv = (%q, %d, %v)", data, src, err)
	}

	tr.in.close()

	// Frames after close must be counted, not silently discarded — and the
	// pump must keep reading so the writer never blocks.
	for i := 0; i < 3; i++ {
		if err := writeFrame(client, 1, 0, 7, []byte("post-close")); err != nil {
			t.Fatalf("write %d after inbox close blocked or failed: %v", i, err)
		}
	}

	dropped := rec.Registry().Counter("mpi/dropped_frames")
	deadline := time.After(2 * time.Second)
	for dropped.Value() < 3 {
		select {
		case <-deadline:
			t.Fatalf("mpi/dropped_frames = %d after 3 post-close frames, want 3", dropped.Value())
		case <-time.After(time.Millisecond):
		}
	}

	// Closing the connection ends the pump cleanly.
	client.Close()
	select {
	case <-pumpDone:
	case <-time.After(2 * time.Second):
		t.Fatal("pump did not exit after connection close")
	}
}

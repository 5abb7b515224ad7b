package mpi

import (
	"sync"
	"testing"
	"time"
)

// FuzzInbox drives the inbox through fuzzer-chosen interleavings of
// concurrent sends, matched, wildcard-source and mismatched receives, and a
// close injected at an arbitrary point — the shutdown races World.Run and
// the TCP pump lean on. Invariants: no operation panics or deadlocks, a
// message is delivered at most once, and every receiver unblocks once the
// inbox closes.
func FuzzInbox(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(0x5a5a), uint8(4))
	f.Add(uint8(1), uint8(1), uint16(0), uint8(0))
	f.Add(uint8(8), uint8(5), uint16(0xffff), uint8(1))
	f.Fuzz(func(t *testing.T, senders, receivers uint8, plan uint16, closeAt uint8) {
		nSend := int(senders%8) + 1
		nRecv := int(receivers%8) + 1
		ib := newInbox()

		var delivered sync.Map // payload byte -> receive count
		var wg sync.WaitGroup

		for s := 0; s < nSend; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					// Sends to a closed inbox must error, never panic.
					_ = ib.put(message{src: s, tag: int(plan>>(uint(i)%16)) & 3, data: []byte{byte(s<<4 | i)}})
				}
			}(s)
		}

		for r := 0; r < nRecv; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					src, tag := AnySource, int(plan>>uint(r+i))&3
					if plan&(1<<(uint(r+i)%16)) != 0 {
						src, tag = r%nSend, int(plan>>uint(r%8))&3
					}
					m, ok := ib.get(src, tag)
					if ok {
						if _, loaded := delivered.LoadOrStore(m.data[0], true); loaded {
							t.Errorf("payload %#x delivered twice", m.data[0])
						}
					}
				}
			}(r)
		}

		// Close at a fuzzer-chosen point to race in-flight puts and gets.
		time.Sleep(time.Duration(closeAt%4) * time.Millisecond)
		ib.close()

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("inbox operations deadlocked after close")
		}
	})
}

package parallel

import (
	"bytes"
	"errors"
	"testing"

	"parma/internal/kirchhoff"
	"parma/internal/obs"
)

// TestWritePipelinedMatchesSerialBytes: the pipelined single-file writer
// must be byte-identical to the serial serialization, at any former count
// and on single-row and single-column arrays, whose runs are empty.
func TestWritePipelinedMatchesSerialBytes(t *testing.T) {
	for _, sz := range [][2]int{{4, 5}, {1, 1}, {1, 5}, {5, 1}, {11, 13}} {
		p := testProblem(t, sz[0], sz[1], 21)
		var want bytes.Buffer
		if _, err := kirchhoff.WriteSystem(&want, p.FormAll()); err != nil {
			t.Fatal(err)
		}
		for _, formers := range []int{1, 2, 3, 8} {
			var got bytes.Buffer
			n, err := WritePipelined(p, &got, formers)
			if err != nil {
				t.Fatalf("%dx%d formers=%d: %v", sz[0], sz[1], formers, err)
			}
			if n != int64(got.Len()) {
				t.Fatalf("%dx%d formers=%d: reported %d bytes, wrote %d", sz[0], sz[1], formers, n, got.Len())
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%dx%d formers=%d: pipelined output differs from serial", sz[0], sz[1], formers)
			}
		}
	}
}

// failAfter fails every write after the first N bytes.
type failAfter struct {
	n       int
	written int
}

var errDiskFull = errors.New("disk full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		return 0, errDiskFull
	}
	f.written += len(p)
	return len(p), nil
}

func TestWritePipelinedPropagatesWriteError(t *testing.T) {
	p := testProblem(t, 4, 4, 22)
	_, err := WritePipelined(p, &failAfter{n: 100}, 3)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want disk-full", err)
	}
}

func TestTermCensusMatchesFormedSystem(t *testing.T) {
	p := testProblem(t, 3, 5, 23)
	terms := 0
	for _, e := range p.FormAll() {
		terms += len(e.Terms)
	}
	if got := kirchhoff.TermCensus(p.Array); got != terms {
		t.Fatalf("TermCensus = %d, formed system has %d terms", got, terms)
	}
}

// TestWritePipelinedPropagatesFirstWriteError: with more formers than the
// sequencer can drain, a writer that fails at once must still surface its
// error, not deadlock the formers on the block or free-list channels.
func TestWritePipelinedPropagatesFirstWriteError(t *testing.T) {
	p := testProblem(t, 6, 6, 26)
	_, err := WritePipelined(p, &failAfter{n: 0}, 4)
	if !errors.Is(err, errDiskFull) {
		t.Fatalf("err = %v, want disk-full", err)
	}
}

// TestWritePipelinedStopsAfterWriteError: once a write fails, the
// sequencer hands out no more pairs, so the formers render only the window
// handed out before it (2·formers pairs), not the other 256 − 2·formers.
// The bound leaves room for the blocks of any schedule.
func TestWritePipelinedStopsAfterWriteError(t *testing.T) {
	p := testProblem(t, 16, 16, 28)
	for _, formers := range []int{1, 2, 4} {
		rec := obs.NewRecorder()
		obs.Enable(rec)
		_, err := WritePipelined(p, &failAfter{n: 0}, formers)
		obs.Disable()
		if !errors.Is(err, errDiskFull) {
			t.Fatalf("formers=%d: err = %v, want disk-full", formers, err)
		}
		rendered := rec.Registry().Counter(ctrPairsRendered).Value()
		if rendered < 1 || rendered > int64(4*formers+2) {
			t.Fatalf("formers=%d: rendered %d of %d pairs after the first write failed, want 1..%d",
				formers, rendered, p.Array.Pairs(), 4*formers+2)
		}
	}
}

// discard accepts every write.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestWritePipelinedRecyclesBlocks: blocks come back through the free list
// and formers form into their own term buffers, so a whole pass allocates
// fewer times than it has pairs.
func TestWritePipelinedRecyclesBlocks(t *testing.T) {
	p := testProblem(t, 12, 12, 27)
	pairs := p.Array.Pairs()
	for _, formers := range []int{2, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := WritePipelined(p, discard{}, formers); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= float64(pairs) {
			t.Fatalf("formers=%d: %.0f allocations for %d pairs", formers, allocs, pairs)
		}
	}
}

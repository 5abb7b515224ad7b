package parallel

import (
	"bytes"
	"errors"
	"testing"

	"parma/internal/kirchhoff"
)

// TestWritePipelinedMatchesSerialBytes: the pipelined single-file writer
// must be byte-identical to the serial serialization, at any former count.
func TestWritePipelinedMatchesSerialBytes(t *testing.T) {
	p := testProblem(t, 4, 5, 21)
	var want bytes.Buffer
	if _, err := kirchhoff.WriteSystem(&want, p.FormAll()); err != nil {
		t.Fatal(err)
	}
	for _, formers := range []int{1, 2, 3, 8} {
		var got bytes.Buffer
		n, err := WritePipelined(p, &got, formers)
		if err != nil {
			t.Fatalf("formers=%d: %v", formers, err)
		}
		if n != int64(got.Len()) {
			t.Fatalf("formers=%d: reported %d bytes, wrote %d", formers, n, got.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("formers=%d: pipelined output differs from serial", formers)
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

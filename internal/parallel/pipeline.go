package parallel

import (
	"fmt"
	"io"

	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

// WritePipelined streams the whole system to ONE writer while forming and
// serializing pair blocks concurrently: formers pull pair indices, render
// each pair's equations into a byte block, and a sequencer emits blocks in
// canonical pair order. The output is byte-identical to the serial
// WriteSystem over FormAll, but formation and serialization overlap with
// the downstream write — the pipelining optimization for the Figure-9
// workload when a single output file is required.
//
// Steady state allocates nothing per pair: each former forms into its own
// term buffer and appends into a block taken from a free list, and the
// sequencer returns every block to that list once it is written.
func WritePipelined(p *kirchhoff.Problem, w io.Writer, formers int) (int64, error) {
	checkProblem(p)
	if formers < 1 {
		formers = 1
	}
	pairs := p.Array.Pairs()
	perPair := kirchhoff.SystemCensus(p.Array).EquationsPerPair
	sinks, _ := newSinks(p, formers, false)
	form := func(worker, pair int, data []byte) []byte {
		for idx := pair * perPair; idx < (pair+1)*perPair; idx++ {
			data = kirchhoff.AppendEquation(data, sinks[worker].formAt(idx))
		}
		return data
	}

	// Pair 0 is formed here, before the formers start: it is written first
	// anyway, and its length, plus headroom for the wider indices of later
	// pairs, is every fresh block's capacity, so blocks do not grow append
	// by append.
	first := form(0, 0, nil)
	size := len(first) + len(first)/4

	type block struct {
		pair int
		data []byte
	}
	blocks := make(chan block, formers*2) // lets every former stay one block ahead of the sequencer
	// The free list holds as many blocks as can be in flight: one per
	// former, one per slot of blocks, and the one being written. Neither
	// side ever blocks on it: a former that finds it empty allocates, and
	// a block that finds it full is dropped. A blocking take would
	// deadlock the write-error drain, which stops recycling.
	free := make(chan []byte, formers*3+1)
	go func() {
		sched.Run("", formers, sched.NewChunker(pairs-1, formers, sched.Dynamic, 1), sched.Each(func(worker, i int) {
			var data []byte
			select {
			case data = <-free:
			default:
				data = make([]byte, 0, size)
			}
			blocks <- block{pair: i + 1, data: form(worker, i+1, data)}
		}))
		close(blocks)
	}()

	// Sequencer: emit blocks in pair order, stashing early arrivals.
	pending := map[int][]byte{0: first}
	var total int64
	for emit := 0; emit < pairs; {
		data, ok := pending[emit]
		if !ok {
			b, open := <-blocks
			if !open {
				return total, fmt.Errorf("parallel: pipeline emitted %d of %d pair blocks", emit, pairs)
			}
			pending[b.pair] = b.data
			continue
		}
		delete(pending, emit)
		n, err := w.Write(data)
		total += int64(n)
		if err != nil {
			for range blocks {
			}
			return total, fmt.Errorf("parallel: pipelined write: %w", err)
		}
		select {
		case free <- data[:0]: // an io.Writer must not retain what it was given
		default:
		}
		emit++
	}
	return total, nil
}

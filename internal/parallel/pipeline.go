package parallel

import (
	"bytes"
	"fmt"
	"io"

	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

// WritePipelined streams the whole system to ONE writer while forming and
// serializing pair blocks concurrently: formers pull pair indices, render
// each pair's equations to a buffer, and a sequencer emits buffers in
// canonical pair order. The output is byte-identical to the serial
// WriteSystem over FormAll, but formation and serialization overlap with
// the downstream write — the pipelining optimization for the Figure-9
// workload when a single output file is required.
func WritePipelined(p *kirchhoff.Problem, w io.Writer, formers int) (int64, error) {
	checkProblem(p)
	if formers < 1 {
		formers = 1
	}
	pairs := p.Array.Pairs()
	cols := p.Array.Cols()

	type block struct {
		pair int
		data []byte
	}
	blocks := make(chan block, formers*2) // lets every former stay one block ahead of the sequencer
	go func() {
		sched.Run("", formers, sched.NewChunker(pairs, formers, sched.Dynamic, 1), sched.Each(func(_, pair int) {
			var buf bytes.Buffer
			bw := kirchhoff.NewWriter(&buf)
			var formErr error
			p.FormPair(pair/cols, pair%cols, func(e kirchhoff.Equation) {
				if err := bw.WriteEquation(e); err != nil && formErr == nil {
					formErr = err
				}
			})
			if err := bw.Flush(); err != nil && formErr == nil {
				formErr = err
			}
			if formErr != nil {
				// Serialization to a bytes.Buffer cannot fail in
				// practice; surface it as an empty poisoned block.
				blocks <- block{pair: pair, data: nil}
				return
			}
			blocks <- block{pair: pair, data: buf.Bytes()}
		}))
		close(blocks)
	}()

	// Sequencer: emit blocks in pair order, stashing early arrivals.
	pending := make(map[int][]byte)
	emit := 0
	var total int64
	for b := range blocks {
		pending[b.pair] = b.data
		for {
			data, ok := pending[emit]
			if !ok {
				break
			}
			delete(pending, emit)
			if data == nil {
				// Drain remaining blocks before reporting.
				for range blocks {
				}
				return total, fmt.Errorf("parallel: pair %d failed to serialize", emit)
			}
			n, err := w.Write(data)
			total += int64(n)
			if err != nil {
				for range blocks {
				}
				return total, fmt.Errorf("parallel: pipelined write: %w", err)
			}
			emit++
		}
	}
	if emit != pairs {
		return total, fmt.Errorf("parallel: pipeline emitted %d of %d pair blocks", emit, pairs)
	}
	return total, nil
}

package parallel

import (
	"fmt"
	"io"

	"parma/internal/kirchhoff"
	"parma/internal/obs"
	"parma/internal/sched"
)

// ctrPairsRendered counts the pair blocks WritePipelined's formers render.
const ctrPairsRendered = "parallel/pairs_rendered"

// WritePipelined streams the whole system to ONE writer while rendering
// pair blocks concurrently: formers render pairs through one shared
// kirchhoff.Text into byte blocks, and a sequencer writes the blocks in
// canonical pair order. The output is byte-identical to the serial
// WriteSystem over FormAll, but rendering overlaps the downstream write —
// the pipelining optimization for the Figure-9 workload when a single
// output file is required.
//
// The sequencer hands the formers pairs in order, at most a window of
// 2·formers ahead of the pair it writes. So at most that many blocks
// exist: each is sized at the widest pair's text and passes from pair p to
// pair p + window once p is written, and a pass allocates nothing per
// pair. After a failed write the sequencer hands out no more pairs: the
// formers finish the ones they hold, at most a window's worth, and stop.
func WritePipelined(p *kirchhoff.Problem, w io.Writer, formers int) (int64, error) {
	checkProblem(p)
	if formers < 1 {
		formers = 1
	}
	text := kirchhoff.NewText(p)
	size := text.MaxPairLen()
	pairs := p.Array.Pairs()
	window := 2 * formers
	// At most a window of pairs is handed out and not yet written, so
	// neither channel's sender ever waits on it.
	blocks := make([][]byte, window) // blocks[pair%window] is the pair's text
	todo := make(tickets, window)    // pairs handed to the formers, in order
	done := make(chan int, window)   // pairs rendered, in any order
	go func() {
		sched.Run("", formers, todo, sched.Each(func(_, pair int) {
			b := blocks[pair%window]
			if b == nil {
				b = make([]byte, 0, size)
			}
			blocks[pair%window] = text.AppendPair(b[:0], pair)
			obs.Add(ctrPairsRendered, 1)
			done <- pair
		}))
		close(done)
	}()

	// Sequencer: hand out the first window, then write the pairs in order,
	// handing out pair+window as each pair's block comes free.
	issued := 0
	for ; issued < min(window, pairs); issued++ {
		todo <- issued
	}
	ready := make([]bool, window)
	var total int64
	var err error
	for next := 0; next < pairs; {
		if !ready[next%window] {
			pair, ok := <-done
			if !ok {
				err = fmt.Errorf("parallel: pipeline emitted %d of %d pair blocks", next, pairs)
				break
			}
			ready[pair%window] = true
			continue
		}
		ready[next%window] = false
		n, werr := w.Write(blocks[next%window])
		total += int64(n)
		if werr != nil {
			err = fmt.Errorf("parallel: pipelined write: %w", werr)
			break
		}
		next++
		if issued < pairs {
			todo <- issued
			issued++
		}
	}
	// Done, or the write failed: hand out no more pairs, and wait for the
	// formers to finish the ones they hold.
	close(todo)
	for range done {
	}
	return total, err
}

// tickets is WritePipelined's Source: the sequencer sends pair indices
// into it in order, and each former takes the next one.
type tickets chan int

// Next implements sched.Source.
func (t tickets) Next(int) (sched.Range, bool) {
	pair, ok := <-t
	return sched.Range{Lo: pair, Hi: pair + 1}, ok
}

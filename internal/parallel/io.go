package parallel

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"parma/internal/kirchhoff"
	"parma/internal/sched"
)

// WriteSharded forms the whole system with w workers and streams each
// worker's equations to its own shard file dir/equations-<worker>.eq —
// the end-to-end (compute + disk I/O) workload of the paper's Figure 9.
// It returns the total byte count across shards.
//
// Shard files are self-consistent equation files in the kirchhoff.Writer
// format; concatenating and canonically sorting them reproduces the serial
// output exactly.
func WriteSharded(p *kirchhoff.Problem, dir string, w int, policy sched.Policy, chunk int) (int64, error) {
	checkProblem(p)
	if w < 1 {
		w = 1
	}
	if chunk < 1 {
		chunk = DefaultChunk
	}
	files := make([]*os.File, w)
	writers := make([]*kirchhoff.Writer, w)
	for id := 0; id < w; id++ {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("equations-%d.eq", id)))
		if err != nil {
			for _, open := range files[:id] {
				open.Close()
			}
			return 0, fmt.Errorf("parallel: create shard %d: %w", id, err)
		}
		files[id] = f
		writers[id] = kirchhoff.NewWriter(f)
	}

	total := kirchhoff.SystemCensus(p.Array).Equations
	errs := make([]error, w)
	var once sync.Once
	var firstErr error
	sched.Run("write-sharded", w, sched.NewChunker(total, w, policy, chunk), sched.Each(func(worker, idx int) {
		if errs[worker] != nil {
			return
		}
		if err := writers[worker].WriteEquation(p.EquationAt(idx)); err != nil {
			errs[worker] = err
			once.Do(func() { firstErr = fmt.Errorf("parallel: shard %d write: %w", worker, err) })
		}
	}))

	var bytes int64
	for id := 0; id < w; id++ {
		if err := writers[id].Flush(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("parallel: shard %d flush: %w", id, err)
		}
		bytes += writers[id].BytesWritten()
		if err := files[id].Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("parallel: shard %d close: %w", id, err)
		}
	}
	return bytes, firstErr
}

// ReadShards parses every shard in a directory and returns the equations
// re-sorted into canonical order, for verification against serial output.
func ReadShards(p *kirchhoff.Problem, dir string) ([]kirchhoff.Equation, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "equations-*.eq"))
	if err != nil {
		return nil, fmt.Errorf("parallel: glob shards: %w", err)
	}
	out := make([]kirchhoff.Equation, kirchhoff.SystemCensus(p.Array).Equations)
	filled := make([]bool, len(out))
	for _, path := range matches {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("parallel: open shard: %w", err)
		}
		eqs, err := kirchhoff.ParseSystem(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("parallel: parse %s: %w", path, err)
		}
		for _, e := range eqs {
			idx := p.EquationIndex(e)
			if filled[idx] {
				return nil, fmt.Errorf("parallel: duplicate equation at canonical index %d", idx)
			}
			filled[idx] = true
			out[idx] = e
		}
	}
	for idx, ok := range filled {
		if !ok {
			return nil, fmt.Errorf("parallel: canonical index %d missing from shards", idx)
		}
	}
	return out, nil
}

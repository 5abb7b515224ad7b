package main

import (
	"fmt"
	"runtime"

	"parma/internal/gen"
	"parma/internal/kirchhoff"
	"parma/internal/parallel"
)

// form-64: the paper's own workload (Figs. 6, 7, 9). One operation is one
// formation cycle: a fine-grained (PyMP-k) pass over the 64×64 system with
// k = nproc workers, equations hashed and discarded, then one pipelined
// form-and-serialize pass of a 48×48 system into an in-memory counting
// sink (disk is not measured on a sandbox).
var form64 = workload{
	name: "form-64",
	why: "The paper's formation workload (Figs. 6, 7, 9): kirchhoff, sched and parallel do all the work; " +
		"solver, sparse, serve and fleet do none, so a solver or serving change must read no change here.",
	setup: setupForm,
}

const (
	formSize      = 64 // FineGrained pass: 2·64³ = 524,288 equations
	formWriteSize = 48 // WritePipelined pass: 2·48³ = 221,184 equations, 301 MB of text
	formQuickSize = 8
)

type formInstance struct {
	workers  int
	form     *kirchhoff.Problem // fine-grained pass
	write    *kirchhoff.Problem // pipelined pass
	wantHash uint64             // parallel.Serial's digest of form
	wantEqs  int
	wantByte int64 // serial form+serialize byte count of write
}

// countingSink is the in-memory writer the pipelined pass streams into.
type countingSink struct{ n int64 }

func (c *countingSink) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// mediumProblem generates an n×n medium with the given anomalies, measures
// it with the forward simulator and wraps the result as a formation problem.
func mediumProblem(n int, seed int64, anomalies int) (*kirchhoff.Problem, error) {
	md, err := newMedium(n, n, seed, anomalies)
	if err != nil {
		return nil, err
	}
	return kirchhoff.NewProblem(md.arr, md.z, gen.SourceVoltage)
}

// serialStream forms and serializes the whole system on one goroutine into
// a counting sink: the reference the pipelined pass must match byte for
// byte, and the base of its speed-up.
func serialStream(p *kirchhoff.Problem) (int64, error) {
	sink := &countingSink{}
	w := kirchhoff.NewWriter(sink)
	var werr error
	cols := p.Array.Cols()
	for pair := 0; pair < p.Array.Pairs(); pair++ {
		p.FormPair(pair/cols, pair%cols, func(e kirchhoff.Equation) {
			if err := w.WriteEquation(e); err != nil && werr == nil {
				werr = err
			}
		})
	}
	if err := w.Flush(); err != nil && werr == nil {
		werr = err
	}
	return sink.n, werr
}

func setupForm(cfg config) (instance, error) {
	n, nw := formSize, formWriteSize
	if cfg.quick {
		n, nw = formQuickSize, formQuickSize
	}
	in := &formInstance{workers: runtime.NumCPU()}
	var err error
	if in.form, err = mediumProblem(n, cfg.seed, 2); err != nil {
		return nil, fmt.Errorf("form-64 set-up: %w", err)
	}
	if in.write, err = mediumProblem(nw, cfg.seed+1, 2); err != nil {
		return nil, fmt.Errorf("form-64 set-up: %w", err)
	}
	// The references double as the untimed warm-up: the serial strategy's
	// digest, and the byte count of a serial form-and-serialize stream.
	ref := parallel.Serial{}.Run(in.form, parallel.Options{})
	in.wantHash, in.wantEqs = ref.Hash, 2*n*n*n
	if ref.Count != in.wantEqs {
		return nil, fmt.Errorf("form-64 set-up: serial formed %d equations, want %d", ref.Count, in.wantEqs)
	}
	if in.wantByte, err = serialStream(in.write); err != nil {
		return nil, fmt.Errorf("form-64 set-up: serial serialize: %w", err)
	}
	return in, nil
}

func (in *formInstance) pids() []int      { return nil }
func (in *formInstance) tracks() []string { return []string{"harness"} }
func (in *formInstance) close()           {}

func (in *formInstance) run(seconds float64, rec *recorder) *measurement {
	m := &measurement{}
	cpu := startCPU(nil)
	m.region.lo = rec.now()
	m.closed = closedLoop(seconds, func(i int) bool {
		ok := true
		root := rec.begin("harness", "form-64.cycle", 0, -1, i)

		sp := rec.begin("parallel", "parallel.FineGrained.Run", 0, root, i)
		res := parallel.FineGrained{}.Run(in.form, parallel.Options{Workers: in.workers})
		rec.end(sp)
		if res.Count != in.wantEqs || res.Hash != in.wantHash {
			m.fail("cycle %d: formed %d equations hash %x, serial has %d hash %x", i, res.Count, res.Hash, in.wantEqs, in.wantHash)
			ok = false
		}

		sp = rec.begin("parallel", "parallel.WritePipelined", 0, root, i)
		sink := &countingSink{}
		n, err := parallel.WritePipelined(in.write, sink, in.workers)
		rec.end(sp)
		if err != nil || n != in.wantByte || sink.n != in.wantByte {
			m.fail("cycle %d: pipelined wrote %d bytes (err %v), serial writes %d", i, n, err, in.wantByte)
			ok = false
		}
		rec.end(root)
		return ok
	})
	m.region.hi = rec.now()
	cpu.stop()
	m.cpuS, m.harnessCPU = cpu.self, cpu.self
	return m
}

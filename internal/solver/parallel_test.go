package solver

import (
	"context"
	"math"
	"sync"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/mat"
)

// testField builds a deterministic non-uniform field the parallel paths are
// exercised against.
func testField(m, n int) *grid.Field {
	return gen.Medium(gen.Config{Rows: m, Cols: n, Seed: 42,
		Anomalies: []gen.Anomaly{{CenterI: float64(m) / 2, CenterJ: float64(n) / 2,
			RadiusI: 2, RadiusJ: 2, Factor: 3}}})
}

// TestParallelJacobianMatchesSerial pins the fanned-out assembly to the
// serial reference loop within 1e-12 (they are in fact bit-identical: each
// pair writes its own row). At 16×12 a row is 5·192 flops and the 192 rows
// are two pool chunks.
func TestParallelJacobianMatchesSerial(t *testing.T) {
	a := grid.New(16, 12)
	r := testField(16, 12)
	fwd, err := circuit.NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	m, n := a.Rows(), a.Cols()
	if chunks := mat.Chunks(m*n, 5*m*n); chunks < 2 {
		t.Fatalf("%dx%d: the Jacobian's rows are %d chunk, want at least 2", m, n, chunks)
	}
	want := mat.NewMatrix(m*n, m*n)
	for p := 0; p < m; p++ {
		for q := 0; q < n; q++ {
			sens := fwd.Sensitivity(p, q, r)
			row := want.Row(p*n + q)
			for k := 0; k < m; k++ {
				for l := 0; l < n; l++ {
					row[k*n+l] = sens.At(k, l) * r.At(k, l)
				}
			}
		}
	}
	for _, workers := range []int{1, 4} {
		prev := mat.Parallelism(workers)
		got := mat.NewMatrix(m*n, m*n)
		assembleJacobian(context.Background(), got, fwd, r)
		mat.Parallelism(prev)
		if !got.ApproxEqual(want, 1e-12) {
			t.Errorf("workers=%d: parallel Jacobian differs from serial reference", workers)
		}
	}
}

// TestRecoverInvariantUnderParallelism asserts the whole recovery is
// bit-stable across pool widths: every parallel write is to disjoint
// memory and every reduction keeps its serial order, so parallelism may
// change wall-clock only, never the iterate sequence. At 6×6 every kernel is
// one chunk. At 48×40 and at the paper's 64×64 the cross product splits into
// several chunks of block tasks and NewSolver fans out G's rows, so the
// parallel paths are what those cases pin: the recovered field bit for bit,
// and the LM and CG iteration counts exactly. At 48×40 the A blocks (40×40)
// and the B blocks (48×48) differ in size. Width 3 is odd, and width 8 has
// more workers than the 48×40 product has chunks; the 64×64 case, most of
// this test's time under -race, runs widths 2 and 4 only. The chunk counts
// are pinned exactly: 64×64 is recover-64's eight.
func TestRecoverInvariantUnderParallelism(t *testing.T) {
	for _, g := range []struct {
		m, n, chunks int
		widths       []int
	}{
		{6, 6, 1, []int{2, 3, 8}},
		{48, 40, 3, []int{2, 3, 8}},
		{64, 64, 8, []int{2, 4}},
	} {
		m, n := g.m, g.n
		if chunks := crossChunks(&crossBlocks{m: m, n: n}); chunks != g.chunks {
			t.Fatalf("%dx%d: the cross product splits into %d chunks, want %d", m, n, chunks, g.chunks)
		}
		a := grid.New(m, n)
		z, err := circuit.MeasureAll(a, testField(m, n))
		if err != nil {
			t.Fatal(err)
		}
		run := func(workers int) RecoverResult {
			prev := mat.Parallelism(workers)
			defer mat.Parallelism(prev)
			res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: 1e-9})
			if err != nil {
				t.Fatalf("%dx%d workers=%d: %v", m, n, workers, err)
			}
			return res
		}
		serial := run(1)
		for _, workers := range g.widths {
			par := run(workers)
			if par.Iterations != serial.Iterations || par.CGIterations != serial.CGIterations {
				t.Errorf("%dx%d workers=%d: %d LM / %d CG iterations, serial %d / %d", m, n, workers,
					par.Iterations, par.CGIterations, serial.Iterations, serial.CGIterations)
			}
			if math.Float64bits(par.Residual) != math.Float64bits(serial.Residual) {
				t.Errorf("%dx%d workers=%d: residual %g, serial %g", m, n, workers, par.Residual, serial.Residual)
			}
			for d, v := range serial.R.Values() {
				if w := par.R.Values()[d]; math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%dx%d workers=%d: recovered fields differ at %d: %g vs serial %g", m, n, workers, d, w, v)
				}
			}
		}
	}
}

// TestConcurrentRecoverSharedSolver drives parallel Jacobian assembly and
// concurrent Recover calls through one shared, cached circuit.Solver — the
// serving layer's exact sharing pattern — under the race detector. The
// solver's immutable-after-construction contract plus the disjoint-row
// writes mean no synchronization beyond the pool barrier is needed.
func TestConcurrentRecoverSharedSolver(t *testing.T) {
	const m, n = 16, 12 // the Jacobian's rows are two pool chunks
	a := grid.New(m, n)
	r := testField(m, n)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := circuit.NewSolver(a, r) // the "cached" factorization
	if err != nil {
		t.Fatal(err)
	}
	prev := mat.Parallelism(4)
	defer mat.Parallelism(prev)

	var wg sync.WaitGroup
	// Two full recoveries race each other (each fans its own kernels out on
	// the shared pool)...
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: 1e-8})
			if err != nil {
				t.Errorf("concurrent Recover: %v", err)
				return
			}
			if res.Residual > 1e-8 {
				t.Errorf("concurrent Recover residual %g", res.Residual)
			}
		}()
	}
	// ...while other goroutines hammer the shared cached solver with
	// sensitivity and measurement reads, and one assembles a Jacobian from
	// it through the same pool.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				_ = shared.Sensitivity(rep%5, (rep*2)%5, r)
				_ = shared.EffectiveResistance((rep*3)%5, rep%5)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		jac := mat.NewMatrix(m*n, m*n)
		for rep := 0; rep < 3; rep++ {
			assembleJacobian(context.Background(), jac, shared, r)
		}
	}()
	wg.Wait()
}

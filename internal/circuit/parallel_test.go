package circuit

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"parma/internal/grid"
	"parma/internal/mat"
)

// TestNewSolverInvariantUnderParallelism: the wire rows of G fan out over
// the pool at 48×40 and 64×64, and every row of G is the same bits at any
// pool width, since each entry is summed in one fixed order by the one task
// that owns it. 48×40 is rectangular, so G_hv is not square. The chunk
// counts are pinned: recover-64 builds G in eight chunks and sweeps its
// 4,096 pairs as one.
func TestNewSolverInvariantUnderParallelism(t *testing.T) {
	for _, g := range []struct{ m, n, greenChunks, pairChunks int }{
		{48, 40, 3, 1},
		{64, 64, 8, 1},
	} {
		m, n := g.m, g.n
		if chunks := mat.Chunks(m-1, greenRowFlops(m, n)); chunks != g.greenChunks {
			t.Fatalf("%dx%d: G's wire rows are %d chunks, want %d", m, n, chunks, g.greenChunks)
		}
		if chunks := mat.Chunks(m*n, pairFlops); chunks != g.pairChunks {
			t.Fatalf("%dx%d: a pair sweep is %d chunks, want %d", m, n, chunks, g.pairChunks)
		}
		a := grid.New(m, n)
		r := randomField(rand.New(rand.NewSource(3)), m, n)
		build := func(workers int) *Solver {
			prev := mat.Parallelism(workers)
			defer mat.Parallelism(prev)
			s, err := NewSolver(a, r)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		serial := build(1)
		for _, workers := range []int{2, 3, 8} {
			par := build(workers)
			for u := 0; u < m+n; u++ {
				for v, want := range serial.Green(u) {
					if got := par.Green(u)[v]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%dx%d workers=%d: G[%d,%d] = %.17g, serial %.17g", m, n, workers, u, v, got, want)
					}
				}
			}
		}
	}
}

// TestNewSolverAllocations pins what NewSolver allocates at the serving
// layer's sizes, where G's wire rows and every Cholesky column are one plain
// call: its buffers only, ten, at any pool width and any size. At 64×64,
// where G's wire rows fan out, two workers allocate what one does: the
// buffers and the fan-out's closure, eleven, since the pool's helpers and
// job are reused.
func TestNewSolverAllocations(t *testing.T) {
	for _, workers := range []int{1, 2} {
		prev := mat.Parallelism(workers)
		for _, n := range []int{8, 12, 32} {
			if chunks := mat.Chunks(n-1, greenRowFlops(n, n)); chunks != 1 {
				t.Fatalf("%dx%d: G's wire rows split into %d chunks, want one plain call", n, n, chunks)
			}
			a := grid.NewSquare(n)
			r := randomField(rand.New(rand.NewSource(1)), n, n)
			allocs := testing.AllocsPerRun(10, func() {
				if _, err := NewSolver(a, r); err != nil {
					t.Fatal(err)
				}
			})
			if want := 10.0; allocs > want {
				t.Errorf("workers=%d %dx%d: NewSolver allocates %v times, want at most %v", workers, n, n, allocs, want)
			}
		}
		mat.Parallelism(prev)
	}
	// testing.AllocsPerRun runs at GOMAXPROCS 1, where the pool keeps no
	// helper between fan-outs, so the 64×64 case counts every goroutine's
	// allocations itself, at GOMAXPROCS 2.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a := grid.NewSquare(64)
	r := randomField(rand.New(rand.NewSource(1)), 64, 64)
	var allocs [3]uint64
	for _, workers := range []int{1, 2} {
		prev := mat.Parallelism(workers)
		if _, err := NewSolver(a, r); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if _, err := NewSolver(a, r); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		allocs[workers] = (after.Mallocs - before.Mallocs) / 10
		mat.Parallelism(prev)
	}
	if allocs[1] > 11 || allocs[2] != allocs[1] {
		t.Errorf("64x64: NewSolver allocates %d times on one worker and %d on two, want the same, at most 11", allocs[1], allocs[2])
	}
}

// TestNewSolverPanicsOnCaller: a non-positive resistance panics on the
// calling goroutine, where the caller can recover it, even at a size whose
// G fans out; a panic on a pool helper would end the process instead. The
// bad resistor sits on the last wire row, which a helper would build.
func TestNewSolverPanicsOnCaller(t *testing.T) {
	prev := mat.Parallelism(4)
	defer mat.Parallelism(prev)
	a := grid.NewSquare(64)
	for _, bad := range []float64{0, -5} {
		r := testField(a)
		r.Set(63, 40, bad)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("R = %g at (63,40) was accepted", bad)
				}
			}()
			_, _ = NewSolver(a, r)
		}()
	}
}

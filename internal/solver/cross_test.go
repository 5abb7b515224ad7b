package solver

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/sparse"
)

// csrOnPlan is the cross blocks' oracle: S as a CSR on NewPlan's pattern,
// filled entry by entry with the drop formula, read from fwd's inverse.
func csrOnPlan(m, n int, fwd *circuit.Solver) *sparse.CSR {
	p := NewPlan(m, n)
	s := sparse.FromPattern(m*n, m*n, p.rowPtr, p.colIdx)
	for pq := 0; pq < m*n; pq++ {
		gu, gv := fwd.Green(pq/n), fwd.Green(m+pq%n)
		cols, vals := s.RowVals(pq)
		for i, kl := range cols {
			k, l := kl/n, m+kl%n
			drop := (gu[k] + gv[l]) - (gv[k] + gu[l])
			vals[i] = drop * drop
		}
	}
	return s
}

// relDiff is ‖got − want‖/‖want‖.
func relDiff(got, want mat.Vector) float64 {
	d := got.Clone()
	d.AddScaled(-1, want)
	return d.Norm2() / want.Norm2()
}

// TestCrossBlocksMatchCSR holds the block storage of S to the CSR form on
// NewPlan's pattern, both filled from one forward model: every value the
// blocks store is the CSR's value at the same (pq, kl), bit for bit, the
// blocks hold nothing else but the zero B diagonal, S·x agrees to 1e-13 at
// either pool width, Λ is S's diagonal plus the 1e-12 floor bit for bit,
// and the right-hand side is the residual itself. The shapes include the
// single-wire strips (m = 1 leaves every B_q a lone zero) and the
// rectangular geometries the series traffic sends.
func TestCrossBlocksMatchCSR(t *testing.T) {
	ctx := context.Background()
	for _, g := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {4, 7}, {7, 4}, {16, 16}, {32, 31}} {
		m, n := g[0], g[1]
		u := m * n
		r := testField(m, n)
		fwd, err := circuit.NewSolver(grid.New(m, n), r)
		if err != nil {
			t.Fatal(err)
		}
		csr := csrOnPlan(m, n, fwd)
		res, x := mat.NewVector(u), mat.NewVector(u)
		for i := range res {
			res[i], x[i] = float64(i%5)-2, 1+float64(i%7)
		}
		wantSx := csr.MulVec(x)
		for _, workers := range []int{1, 3} {
			prev := mat.Parallelism(workers)
			st := newSparseStepper(m, n, false)
			st.prepare(ctx, fwd, r, res)
			gotSx := mat.NewVector(u)
			st.s.mulVec(gotSx, x)
			mat.Parallelism(prev)

			blocks := st.s.(*crossBlocks)
			for pq := 0; pq < u; pq++ {
				p, q := pq/n, pq%n
				cols, vals := csr.RowVals(pq)
				for i, kl := range cols {
					got := blocks.bRow(p, q)[kl/n]
					if kl/n == p {
						got = blocks.aRow(pq)[kl%n]
					}
					if math.Float64bits(got) != math.Float64bits(vals[i]) {
						t.Fatalf("%dx%d workers=%d: S[%d,%d] is %x in the blocks, %x in the CSR", m, n, workers,
							pq, kl, math.Float64bits(got), math.Float64bits(vals[i]))
					}
				}
			}
			if got := len(blocks.a) + len(blocks.b) - u; got != csr.NNZ() || st.s.nnz() != csr.NNZ() {
				t.Fatalf("%dx%d: blocks hold %d off-diagonal-B values and report nnz %d, CSR has %d",
					m, n, got, st.s.nnz(), csr.NNZ())
			}
			if rel := relDiff(gotSx, wantSx); rel > 1e-13 {
				t.Errorf("%dx%d workers=%d: S·x differs from the CSR's by %g relative", m, n, workers, rel)
			}
			for d, got := range st.diag {
				if want := csr.At(d, d) + 1e-12; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%dx%d workers=%d: Λ[%d] = %g, want S[%d,%d] + 1e-12 = %g", m, n, workers, d, got, d, d, want)
				}
			}
			if &st.res[0] != &res[0] {
				t.Fatalf("%dx%d workers=%d: the right-hand side is not the residual", m, n, workers)
			}
		}
	}
}

// TestCrossApplyAllocatesNothing: a cross product up to 32×32 is one pool
// chunk at any pool width, so the CG operator runs without the pool's
// closure and small recoveries iterate allocation-free — serve's, and
// serve-series's 32×32 ones on one-worker pools. The chunk counts of the
// benchmarked sizes are pinned: one at 32×32, eight at recover-64's 64×64
// and 34 at BenchmarkCrossMulVec's 100×100. A 64×64 product, which fans
// out, allocates the same on two workers as on one: the pool's helpers and
// its job are reused, so only the product's own closure is new.
func TestCrossApplyAllocatesNothing(t *testing.T) {
	for n, want := range map[int]int{32: 1, 64: 8, 100: 34} {
		if chunks := crossChunks(&crossBlocks{m: n, n: n}); chunks != want {
			t.Errorf("%dx%d cross product splits into %d chunks, want %d", n, n, chunks, want)
		}
	}
	for _, tc := range []struct{ n, workers int }{{8, 4}, {32, 1}, {32, 4}} {
		prev := mat.Parallelism(tc.workers)
		st, fwd, r, res := refreshFixture(t, tc.n)
		st.prepare(context.Background(), fwd, r, res)
		if chunks := crossChunks(st.s.(*crossBlocks)); chunks != 1 {
			t.Fatalf("%dx%d cross product splits into %d chunks, want one", tc.n, tc.n, chunks)
		}
		u := tc.n * tc.n
		dst, x := mat.NewVector(u), mat.NewVector(u)
		x.Fill(1)
		allocs := testing.AllocsPerRun(20, func() { st.Apply(dst, x) })
		mat.Parallelism(prev)
		if allocs != 0 {
			t.Fatalf("Apply allocates %v times at %dx%d, workers=%d", allocs, tc.n, tc.n, tc.workers)
		}
	}
	// The pool keeps helpers between fan-outs only while GOMAXPROCS > 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	st, fwd, r, res := refreshFixture(t, 64)
	st.prepare(context.Background(), fwd, r, res)
	dst, x := mat.NewVector(64*64), mat.NewVector(64*64)
	x.Fill(1)
	var allocs [3]uint64
	for _, workers := range []int{1, 2} {
		prev := mat.Parallelism(workers)
		allocs[workers] = mallocsPerRun(20, func() { st.Apply(dst, x) })
		mat.Parallelism(prev)
	}
	if allocs[2] != allocs[1] || allocs[1] > 1 {
		t.Fatalf("a 64x64 Apply allocates %d times on one worker and %d on two, want the same, at most one", allocs[1], allocs[2])
	}
}

// mallocsPerRun is testing.AllocsPerRun without its GOMAXPROCS(1), under
// which the pool keeps no helper between fan-outs: the heap allocations of
// every goroutine per call of f, after one warm-up call.
func mallocsPerRun(runs int, f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(runs)
}

// crossChunks is the number of pool chunks one product on c hands out.
func crossChunks(c *crossBlocks) int { return mat.Chunks(c.m+c.n, c.taskFlops()) }

// BenchmarkCrossMulVec times one S·x at n×n on the cross blocks and, as the
// reference, on the CSR form the blocks replaced. Run it with -cpu 1,2 for
// the table in docs/performance.md.
func BenchmarkCrossMulVec(b *testing.B) {
	for _, n := range []int{32, 64, 100} {
		r := testField(n, n)
		fwd, err := circuit.NewSolver(grid.NewSquare(n), r)
		if err != nil {
			b.Fatal(err)
		}
		blocks := newCrossBlocks(n, n)
		blocks.refresh(fwd, mat.NewVector(n*n))
		csr := csrOnPlan(n, n, fwd)
		x, y := mat.NewVector(n*n), mat.NewVector(n*n)
		for i := range x {
			x[i] = 1 + float64(i%7)
		}
		for _, form := range []struct {
			name string
			mul  func(y, x mat.Vector)
		}{{"blocks", blocks.mulVec}, {"csr", csr.MulVecTo}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, form.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					form.mul(y, x)
				}
			})
		}
	}
}

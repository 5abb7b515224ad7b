package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/mat"
)

// TestPlanCrossPattern pins the symbolic layer: row (p, q) of the plan holds
// exactly the cross {(k, l): k == p or l == q}, sorted, the pattern is
// structurally symmetric, and the entry count is m·n·(m+n−1).
func TestPlanCrossPattern(t *testing.T) {
	m, n := 3, 4
	p := NewPlan(m, n)
	if p.NNZ() != m*n*(m+n-1) {
		t.Fatalf("NNZ = %d, want %d", p.NNZ(), m*n*(m+n-1))
	}
	in := make(map[[2]int]bool)
	for pq := 0; pq < m*n; pq++ {
		cols := p.colIdx[p.rowPtr[pq]:p.rowPtr[pq+1]]
		pr, q := pq/n, pq%n
		want := map[int]bool{}
		for k := 0; k < m; k++ {
			want[k*n+q] = true
		}
		for l := 0; l < n; l++ {
			want[pr*n+l] = true
		}
		if len(cols) != len(want) {
			t.Fatalf("row %d has %d cols, want %d", pq, len(cols), len(want))
		}
		for i, c := range cols {
			if !want[c] {
				t.Fatalf("row %d: unexpected column %d", pq, c)
			}
			if i > 0 && cols[i-1] >= c {
				t.Fatalf("row %d: columns unsorted: %v", pq, cols)
			}
			in[[2]int{pq, c}] = true
		}
	}
	for e := range in {
		if !in[[2]int{e[1], e[0]}] {
			t.Fatalf("pattern not structurally symmetric at %v", e)
		}
	}
}

// TestRecoverSparseMatchesDenseExact is the golden equivalence test: in
// exact mode (the full u×u pattern) the sparse path solves the same damped
// normal equations as dense Cholesky, just iteratively, so the two backends
// must take the same Levenberg-Marquardt trajectory — same iteration count,
// same residual, recovered fields identical to 1e-9 — at every kernel pool
// width, with the same CG iteration count at each. Rectangular and
// warm-started inputs are where diagonal preconditioning works hardest.
func TestRecoverSparseMatchesDenseExact(t *testing.T) {
	for _, g := range [][2]int{{16, 16}, {9, 14}, {14, 9}} {
		m, n := g[0], g[1]
		truth, z, err := gen.Measurements(gen.Config{
			Rows: m, Cols: n, Seed: 7,
			Anomalies: []gen.Anomaly{{CenterI: float64(m) / 3, CenterJ: 2 * float64(n) / 3, RadiusI: 2, RadiusJ: 2, Factor: 4}},
		})
		if err != nil {
			t.Fatal(err)
		}
		warm := truth.Clone()
		rng := rand.New(rand.NewSource(11))
		wv := warm.Values()
		for i := range wv {
			wv[i] *= 1 + 0.05*(2*rng.Float64()-1)
		}
		a := grid.New(m, n)
		for _, start := range []struct {
			name    string
			initial *grid.Field
		}{{"cold", nil}, {"warm", warm}} {
			t.Run(fmt.Sprintf("%dx%d/%s", m, n, start.name), func(t *testing.T) {
				dense, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodDense, Initial: start.initial})
				if err != nil {
					t.Fatal(err)
				}
				if dense.NNZ != 0 || dense.CGIterations != 0 {
					t.Fatalf("dense result reports sparse counters: %+v", dense)
				}
				cgIters := 0
				for _, workers := range []int{1, 3} {
					prev := mat.Parallelism(workers)
					sparse, err := Recover(context.Background(), a, z, RecoverOptions{
						Method: MethodSparse, exact: true, Initial: start.initial,
					})
					mat.Parallelism(prev)
					if err != nil {
						t.Fatalf("workers=%d: %v", workers, err)
					}
					if sparse.NNZ == 0 || sparse.CGIterations == 0 {
						t.Fatalf("workers=%d: sparse result counters: %+v", workers, sparse)
					}
					if sparse.Iterations != dense.Iterations {
						t.Fatalf("workers=%d: sparse took %d LM iterations, dense %d",
							workers, sparse.Iterations, dense.Iterations)
					}
					if math.Abs(sparse.Residual-dense.Residual) > 1e-8 {
						t.Fatalf("workers=%d: residuals diverge: sparse %g, dense %g",
							workers, sparse.Residual, dense.Residual)
					}
					if rel := sparse.R.MaxAbsDiff(dense.R) / truth.Max(); rel > 1e-9 {
						t.Fatalf("workers=%d: recovered fields differ by %g relative", workers, rel)
					}
					if cgIters != 0 && sparse.CGIterations != cgIters {
						t.Fatalf("workers=%d: %d CG iterations, %d at the other width",
							workers, sparse.CGIterations, cgIters)
					}
					cgIters = sparse.CGIterations
				}
			})
		}
	}
}

// TestRecoverSparseCrossOnlyResolvesAnomaly: on the cross pattern the
// trajectory may differ from dense, but the recovery must still converge to
// the measurements and resolve the anomaly — leaving the off-cross entries
// out can cost iterations, never correctness (the accept test uses exact
// forward residuals).
func TestRecoverSparseCrossOnlyResolvesAnomaly(t *testing.T) {
	truth, z, err := gen.Measurements(gen.Config{
		Rows: 8, Cols: 8, Seed: 3,
		Anomalies: []gen.Anomaly{{CenterI: 4, CenterJ: 4, RadiusI: 1.2, RadiusJ: 1.2, Factor: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), grid.New(8, 8), z, RecoverOptions{Method: MethodSparse, Tol: 1e-9})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	want, got := truth.At(4, 4), res.R.At(4, 4)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("anomaly cell recovered as %g, truth %g", got, want)
	}
}

// TestRecoverSparseWarmStartStaysOnCross: the sparse Jacobian's structure is
// the plan's whatever the starting field. A warm start from the previous time
// point of a growing anomaly — the serving layer's series traffic — runs on
// exactly plan.NNZ() entries and converges to Tol, concurrently at either pool
// width; exact mode reports the full (m·n)² pattern.
func TestRecoverSparseWarmStartStaysOnCross(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{20, 32} {
		a := grid.NewSquare(n)
		series := gen.TimeSeries(gen.Config{Rows: n, Cols: n, Seed: int64(n),
			Anomalies: []gen.Anomaly{{CenterI: 0.4 * float64(n), CenterJ: 0.6 * float64(n),
				RadiusI: 0.1 * float64(n), RadiusJ: 0.12 * float64(n)}}}, 0.03)
		zs := make(map[int]*grid.Field, len(series))
		for h, r := range series {
			z, err := circuit.MeasureAll(a, r)
			if err != nil {
				t.Fatal(err)
			}
			zs[h] = z
		}
		plan := NewPlan(n, n)
		first, err := Recover(ctx, a, zs[0], RecoverOptions{Method: MethodSparse})
		if err != nil {
			t.Fatalf("%dx%d cold: %v", n, n, err)
		}
		for _, workers := range []int{1, 3} {
			prev := mat.Parallelism(workers)
			var wg sync.WaitGroup
			for _, h := range []int{6, 12} {
				wg.Add(1)
				go func(h int) {
					defer wg.Done()
					res, err := Recover(ctx, a, zs[h], RecoverOptions{Method: MethodSparse, Initial: first.R})
					if err != nil {
						t.Errorf("%dx%d hour %d workers=%d: %v (residual %g)", n, n, h, workers, err, res.Residual)
						return
					}
					if res.NNZ != plan.NNZ() {
						t.Errorf("%dx%d hour %d workers=%d: NNZ = %d, want the plan's %d", n, n, h, workers, res.NNZ, plan.NNZ())
					}
					if res.Residual > 1e-8 {
						t.Errorf("%dx%d hour %d workers=%d: residual %g above Tol", n, n, h, workers, res.Residual)
					}
				}(h)
			}
			wg.Wait()
			mat.Parallelism(prev)
		}
		if n == 20 {
			res, err := Recover(ctx, a, zs[6], RecoverOptions{Method: MethodSparse, exact: true, Initial: first.R})
			if err != nil {
				t.Fatalf("exact: %v", err)
			}
			if res.NNZ != n*n*n*n {
				t.Fatalf("exact: NNZ = %d, want (m·n)² = %d", res.NNZ, n*n*n*n)
			}
		}
	}
}

// TestSparsityRationale measures what the cross pattern leaves out: the share
// of the log-space Jacobian's squared mass that lies off the cross, per pair
// row and overall, on a uniform field and on a rough 2,000–11,000 kΩ field
// with one 4× anomaly. The overall share is small and falls with n (the
// off-cross drops decay like 1/n² against the cross entries), which is why
// the pattern can be the geometry's and not the field's.
func TestSparsityRationale(t *testing.T) {
	sizes := []int{8, 16, 32}
	// Measured, uniform / rough: overall 5.8e-4 / 2.1e-3, 9.2e-5 / 5.4e-4,
	// 1.3e-5 / 8.4e-5; worst row (rough) 9.1e-3, 1.2e-3, 1.7e-4.
	overallBound := []float64{5e-3, 1e-3, 2e-4}
	rowBound := []float64{2e-2, 3e-3, 5e-4}
	for _, field := range []string{"uniform", "rough"} {
		last := math.Inf(1)
		for i, n := range sizes {
			r := grid.UniformField(n, n, 5000)
			if field == "rough" {
				r = gen.Medium(gen.Config{Rows: n, Cols: n, Seed: 2022,
					Anomalies: []gen.Anomaly{{CenterI: 0.4 * float64(n), CenterJ: 0.6 * float64(n),
						RadiusI: 0.12 * float64(n), RadiusJ: 0.12 * float64(n)}}})
			}
			fwd, err := circuit.NewSolver(grid.NewSquare(n), r)
			if err != nil {
				t.Fatal(err)
			}
			row := make([]float64, n*n)
			var off, total, worstRow float64
			for pq := 0; pq < n*n; pq++ {
				jacobianRow(row, fwd, n, n, pq, r.Values())
				var rowOff, rowTotal float64
				for kl, v := range row {
					rowTotal += v * v
					if kl/n != pq/n && kl%n != pq%n {
						rowOff += v * v
					}
				}
				off, total = off+rowOff, total+rowTotal
				worstRow = math.Max(worstRow, rowOff/rowTotal)
			}
			share := off / total
			t.Logf("%s %dx%d: off-cross share %.3g overall, %.3g worst row", field, n, n, share, worstRow)
			if share > overallBound[i] {
				t.Errorf("%s %dx%d: off-cross share %g above %g", field, n, n, share, overallBound[i])
			}
			if worstRow > rowBound[i] {
				t.Errorf("%s %dx%d: worst row's off-cross share %g above %g", field, n, n, worstRow, rowBound[i])
			}
			if share >= last {
				t.Errorf("%s: off-cross share rose from %g to %g at n=%d", field, last, share, n)
			}
			last = share
		}
	}
}

// TestSparseStepperIsOneSymmetricMatrix pins the identity the sparse step is
// built on, J = S·D⁻¹ with S symmetric: after a refresh on a rough
// 2,000–11,000 kΩ field every stored S[pq,kl] is the same bits as S[kl,pq]
// (cross and full pattern, either pool width); in exact mode the right-hand
// side D⁻¹·S·res and the operator D⁻¹·S·S·D⁻¹ + λ·diag agree with the dense
// stepper's Jᵀ·res and (JᵀJ + λ·diag)·x, which are assembled entry by entry
// through jacEntry and share none of this code; and the stepper holds one
// matrix of plan.NNZ() values, not a second copy for the transpose.
func TestSparseStepperIsOneSymmetricMatrix(t *testing.T) {
	ctx := context.Background()
	const lambda = 1e-3
	for _, g := range [][2]int{{6, 6}, {5, 7}, {7, 4}, {16, 16}} {
		m, n := g[0], g[1]
		u := m * n
		r := testField(m, n)
		fwd, err := circuit.NewSolver(grid.New(m, n), r)
		if err != nil {
			t.Fatal(err)
		}
		res, x := mat.NewVector(u), mat.NewVector(u)
		for i := range res {
			res[i], x[i] = float64(i%5)-2, 1+float64(i%7)
		}
		dense := newDenseStepper(m, n)
		dense.prepare(ctx, fwd, r, res)
		buildDamped(dense.aug, dense.jtj, lambda)
		wantOp := dense.aug.MulVec(x)

		for _, workers := range []int{1, 3} {
			prev := mat.Parallelism(workers)
			cross, exact := newSparseStepper(m, n, false), newSparseStepper(m, n, true)
			cross.prepare(ctx, fwd, r, res)
			exact.prepare(ctx, fwd, r, res)
			for i, d := range exact.diag {
				exact.shifted[i] = lambda * d
			}
			gotOp := mat.NewVector(u)
			exact.Apply(gotOp, x)
			mat.Parallelism(prev)

			for name, st := range map[string]*sparseStepper{"cross": cross, "exact": exact} {
				for pq := 0; pq < u; pq++ {
					cols, vals := st.s.RowVals(pq)
					for i, kl := range cols {
						if back := st.s.At(kl, pq); math.Float64bits(back) != math.Float64bits(vals[i]) {
							t.Fatalf("%dx%d workers=%d %s: S[%d,%d] = %x but S[%d,%d] = %x", m, n, workers, name,
								pq, kl, math.Float64bits(vals[i]), kl, pq, math.Float64bits(back))
						}
					}
				}
			}
			for name, pair := range map[string][2]mat.Vector{"Jᵀ·res": {exact.jtr, dense.jtr}, "(JᵀJ+λ·diag)·x": {gotOp, wantOp}} {
				got, want := pair[0].Clone(), pair[1]
				got.AddScaled(-1, want)
				if rel := got.Norm2() / want.Norm2(); rel > 1e-12 {
					t.Errorf("%dx%d workers=%d: %s differs from the dense stepper's by %g relative", m, n, workers, name, rel)
				}
			}
			matrices := 0
			for f, v := 0, reflect.ValueOf(*cross); f < v.NumField(); f++ {
				if v.Field(f).Type() == reflect.TypeOf(cross.s) {
					matrices++
				}
			}
			if matrices != 1 || len(cross.s.Values()) != NewPlan(m, n).NNZ() {
				t.Errorf("%dx%d: stepper holds %d matrices, the first with %d values; want one of %d",
					m, n, matrices, len(cross.s.Values()), NewPlan(m, n).NNZ())
			}
		}
	}
}

// TestRecoverSparseRectangular: the cross pattern and plan indexing must
// hold off the square diagonal too.
func TestRecoverSparseRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	m, n := 4, 7
	truth := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			truth.Set(i, j, 2000+6000*rng.Float64())
		}
	}
	a := grid.New(m, n)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{Method: MethodSparse})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e-3 {
		t.Fatalf("relative error %g", rel)
	}
}

// countdownCtx reports cancellation after a fixed number of Err checks —
// a deterministic way to land the cancellation inside an inner CG solve.
type countdownCtx struct {
	context.Context
	calls, limit int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.limit {
		return context.Canceled
	}
	return nil
}

// TestRecoverSparseCanceledMidCG: cancellation that lands inside an inner
// CG solve must surface as ErrCanceled wrapping the CG's own cancellation
// error, with the best iterate still returned. Sweeping the countdown limit
// guarantees some run dies mid-CG rather than at an outer checkpoint.
func TestRecoverSparseCanceledMidCG(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 5, Cols: 5, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.New(5, 5)
	midCG := false
	for limit := 1; limit < 80; limit++ {
		ctx := &countdownCtx{Context: context.Background(), limit: limit}
		res, err := Recover(ctx, a, z, RecoverOptions{Method: MethodSparse})
		if err == nil {
			break // countdown outlived the recovery; larger limits will too
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("limit %d: err = %v, want ErrCanceled", limit, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("limit %d: err = %v, want to wrap context.Canceled", limit, err)
		}
		if res.R == nil {
			t.Fatalf("limit %d: best iterate missing", limit)
		}
		if strings.Contains(err.Error(), "CG canceled at iteration") {
			midCG = true
		}
	}
	if !midCG {
		t.Fatal("no countdown limit produced a mid-CG cancellation")
	}
}

// refreshFixture returns a sparse stepper and the arguments of a prepare — the
// per-LM-iteration refresh.
func refreshFixture(tb testing.TB, n int) (*sparseStepper, *circuit.Solver, *grid.Field, mat.Vector) {
	tb.Helper()
	a := grid.NewSquare(n)
	r := testField(n, n)
	fwd, err := circuit.NewSolver(a, r)
	if err != nil {
		tb.Fatal(err)
	}
	res := mat.NewVector(n * n)
	for i := range res {
		res[i] = float64(i%5) - 2
	}
	return newSparseStepper(n, n, false), fwd, r, res
}

// TestJacobianRefreshAllocationsIndependentOfSize: the refresh reads every
// entry out of the forward model's inverse in place, so what it allocates is
// the pool fan-out of its three kernels and nothing per pair; and constructing
// a stepper adds a fixed set of buffers — the pattern's two index arrays, one
// values array, seven vectors — however many pairs there are. Both bounds hold
// unchanged when the pair count grows sixteenfold.
func TestJacobianRefreshAllocationsIndependentOfSize(t *testing.T) {
	prev := mat.Parallelism(2)
	defer mat.Parallelism(prev)
	ctx := context.Background()
	for _, n := range []int{6, 24} {
		st, fwd, r, res := refreshFixture(t, n)
		for _, tc := range []struct {
			name  string
			bound float64
			run   func()
		}{
			{"one Jacobian refresh", 40, func() { st.prepare(ctx, fwd, r, res) }},
			{"a stepper and its first refresh", 50, func() {
				newSparseStepper(n, n, false).prepare(ctx, fwd, r, res)
			}},
		} {
			if allocs := testing.AllocsPerRun(5, tc.run); allocs > tc.bound {
				t.Errorf("%dx%d: %s allocates %v times for %d pairs", n, n, tc.name, allocs, n*n)
			}
		}
	}
}

func BenchmarkJacobianRefresh64(b *testing.B) {
	st, fwd, r, res := refreshFixture(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.prepare(context.Background(), fwd, r, res)
	}
}

// BenchmarkRecoverSeries32 times one sparse 32×32 recovery of the wet-lab
// time series (three media × the 0/6/12/24 h points, one growing 4× anomaly
// each) from three starting fields: cold is the closed-form uniform guess,
// near the previous time point's field, far the same hour of another medium.
// The hidden fields stand in for recovered ones (they agree to 1e-5). It is
// the record behind ROADMAP's "warm start that pays" numbers; run it with
// -benchtime 36x to visit every case equally often.
func BenchmarkRecoverSeries32(b *testing.B) {
	const n, media = 32, 3
	a := grid.NewSquare(n)
	type timePoint struct{ r, z *grid.Field }
	series := make([]map[int]timePoint, media)
	for k := range series {
		series[k] = make(map[int]timePoint)
		for h, r := range gen.TimeSeries(gen.Config{Rows: n, Cols: n, Seed: int64(2022 + k),
			Anomalies: []gen.Anomaly{{CenterI: float64(8 + 6*k), CenterJ: float64(20 - 5*k), RadiusI: 3, RadiusJ: 4}}}, 0.03) {
			z, err := circuit.MeasureAll(a, r)
			if err != nil {
				b.Fatal(err)
			}
			series[k][h] = timePoint{r, z}
		}
	}
	type job struct{ z, initial *grid.Field }
	jobs := map[string][]job{}
	for k := range series {
		for i, h := range gen.SampleHours {
			jobs["cold"] = append(jobs["cold"], job{z: series[k][h].z})
			if i > 0 {
				jobs["near"] = append(jobs["near"], job{series[k][h].z, series[k][gen.SampleHours[i-1]].r})
				jobs["far"] = append(jobs["far"], job{series[k][h].z, series[(k+1)%media][h].r})
			}
		}
	}
	for _, start := range []string{"cold", "near", "far"} {
		b.Run(start, func(b *testing.B) {
			b.ReportAllocs()
			var lm, cg int
			for i := 0; i < b.N; i++ {
				j := jobs[start][i%len(jobs[start])]
				res, err := Recover(context.Background(), a, j.z, RecoverOptions{Method: MethodSparse, Initial: j.initial})
				if err != nil {
					b.Fatal(err)
				}
				lm, cg = lm+res.Iterations, cg+res.CGIterations
			}
			b.ReportMetric(float64(lm)/float64(b.N), "lm_iters/op")
			b.ReportMetric(float64(cg)/float64(b.N), "cg_iters/op")
		})
	}
}

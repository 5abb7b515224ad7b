// Package solver finds the unknown resistances from measured Z matrices —
// the step downstream of Parma's equation formation. The paper leaves root
// finding out of scope (its companions estimate roots with neural networks);
// this package provides the classical alternative: a Levenberg-Marquardt
// recovery in log-resistance space driven by the forward model's adjoint
// sensitivities, plus the linear baselines in classical.go.
package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
)

// ErrDiverged is returned when an iteration fails to reduce the residual
// within its budget.
var ErrDiverged = errors.New("solver: iteration diverged or stalled")

// ErrCanceled is returned when the caller's context ends mid-iteration.
// Errors carrying it wrap the context's own cause, so callers can test
// either errors.Is(err, ErrCanceled) or errors.Is(err, context.Canceled).
var ErrCanceled = errors.New("solver: canceled")

// canceled wraps ctx's error under ErrCanceled, or returns nil while ctx
// is live.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	return nil
}

// RecoverOptions configures resistance-field recovery.
type RecoverOptions struct {
	// Tol is the target relative residual ‖Z(R)−Z‖/‖Z‖; zero selects 1e-8.
	Tol float64
	// MaxIter bounds Levenberg-Marquardt iterations; zero selects 60.
	MaxIter int
	// Initial optionally seeds the iteration; nil derives a uniform guess
	// from the mean measurement.
	Initial *grid.Field
	// Method selects the Gauss-Newton linear-algebra backend. The zero
	// value, MethodSparse, is the cross-pattern step every production
	// caller runs; MethodDense is the materialized reference.
	Method Method

	// exact runs the sparse path as the dense-equivalent oracle: the full
	// u×u pattern in place of the cross and a 1e-13 inner CG tolerance, so it
	// must retrace the dense backend's trajectory. Only the in-package golden
	// test (TestRecoverSparseMatchesDenseExact) can set it.
	exact bool
}

// RecoverResult reports a recovery run.
type RecoverResult struct {
	R          *grid.Field // the recovered resistance field
	Iterations int
	Residual   float64 // final relative residual
	// FactorTime is the cumulative time spent factorizing grounded
	// Laplacians (circuit.NewSolver) across every forward solve, the
	// dominant per-iteration cost the serving layer attributes separately
	// from the rest of the solve.
	FactorTime time.Duration
	// CGIterations is the cumulative inner CG iteration count across the
	// recovery (zero for MethodDense).
	CGIterations int
	// NNZ is the sparse Jacobian's entry count, m·n·(m+n−1) on the cross
	// (zero for MethodDense).
	NNZ int
}

// Recover estimates the resistance field from a measured Z matrix by
// Levenberg-Marquardt in log-resistance space. Log parametrization keeps
// every iterate strictly positive (resistances cannot be non-positive —
// the paper's §IV-A sensibility constraint) and equalizes scale across the
// 2,000–11,000 kΩ dynamic range.
//
// Each iteration costs one grounded-Laplacian inverse per trial field
// (circuit.NewSolver), from which residuals and Jacobian entries are
// lookups, and a damped normal-equation solve. The default backend stores
// the Jacobian on the cross pattern and solves matrix-free by
// preconditioned CG at every geometry (docs/performance.md tabulates it
// against the dense reference); MethodDense materializes JᵀJ and factors it
// by Cholesky with a pivoted-LU fallback.
//
// The hot path runs on the parallel kernel layer in internal/mat: the m·n
// Jacobian rows fan out across the shared worker pool (each pair owns one
// row, so no locks). mat.Parallelism bounds the fan-out; a
// serving layer running many concurrent recoveries sets it so request-level
// and kernel-level parallelism multiply out to GOMAXPROCS, not beyond.
// Results are bit-identical at any parallelism setting: every parallel
// write targets disjoint memory and every reduction keeps its serial order.
//
// Cancelling ctx aborts the iteration at the next checkpoint (once per
// outer iteration and once per damping retry) with an error wrapping
// ErrCanceled; the best iterate so far is still returned in the result, so
// a serving layer can stop burning CPU on abandoned requests without
// losing the partial estimate.
func Recover(ctx context.Context, a grid.Array, z *grid.Field, opts RecoverOptions) (result RecoverResult, err error) {
	if z.Rows() != a.Rows() || z.Cols() != a.Cols() {
		return RecoverResult{}, fmt.Errorf("solver: Z is %dx%d but array is %dx%d",
			z.Rows(), z.Cols(), a.Rows(), a.Cols())
	}
	tol := opts.Tol
	if tol == 0 { //parmavet:allow floateq -- zero is the "unset option" sentinel, assigned not computed
		tol = 1e-8
	}
	maxIter := opts.MaxIter
	if maxIter == 0 {
		maxIter = 60
	}
	m, n := a.Rows(), a.Cols()
	nUnknown := m * n

	r := opts.Initial
	if r == nil {
		// Uniform network closed form: Z = R·(m+n−1)/(m·n) (for m=n this
		// is the (2n−1)/n² factor), inverted at the mean measurement.
		guess := z.Mean() * float64(m*n) / float64(m+n-1)
		r = grid.UniformField(m, n, guess)
	} else {
		r = r.Clone()
		if r.Min() <= 0 {
			return RecoverResult{}, fmt.Errorf("solver: initial field has non-positive resistance %g", r.Min())
		}
	}

	zNorm := 0.0
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			zNorm += z.At(i, j) * z.At(i, j)
		}
	}
	zNorm = math.Sqrt(zNorm)
	if zNorm == 0 { //parmavet:allow floateq -- exact-zero measurement matrix guard before relative-residual division
		return RecoverResult{}, fmt.Errorf("solver: zero measurement matrix")
	}

	// residualInto inverts field's grounded Laplacian and fills dst with the
	// per-pair residuals Z(field) − z, each a lookup in the solver's inverse.
	var factorTime time.Duration
	residualInto := func(field *grid.Field, dst mat.Vector) (*circuit.Solver, error) {
		t0 := time.Now()
		s, err := circuit.NewSolver(a, field)
		factorTime += time.Since(t0)
		if err != nil {
			return nil, err
		}
		s.MeasureInto(dst)
		for pq, measured := range z.Values() {
			dst[pq] -= measured
		}
		return s, nil
	}

	res := mat.NewVector(m * n)
	fwd, err := residualInto(r, res)
	if err != nil {
		return RecoverResult{}, fmt.Errorf("solver: initial forward solve: %w", err)
	}
	cost := res.Norm2()
	lambda := 1e-3

	// The Gauss-Newton backend owns every iteration-scoped linearization
	// buffer (Jacobian, normal equations, factorization scratch), reused
	// across iterations and damping retries; only the trial field/residual
	// that ping-pong with the accepted ones live here.
	var st gnStepper
	if opts.Method == MethodDense {
		st = newDenseStepper(m, n)
	} else {
		st = newSparseStepper(m, n, opts.exact)
	}
	step := mat.NewVector(nUnknown)
	trial := grid.NewField(m, n)
	trialRes := mat.NewVector(m * n)

	result.R = r
	defer func() {
		result.FactorTime = factorTime
		result.CGIterations, result.NNZ = st.stats()
	}()
	ctx, spRecover := obs.StartSpanCtx(ctx, "solver/recover")
	defer func() {
		if spRecover.Active() {
			spRecover.End(obs.I("iterations", result.Iterations), obs.F("residual", result.Residual))
		}
	}()
	for iter := 0; iter < maxIter; iter++ {
		result.Iterations = iter
		result.Residual = cost / zNorm
		if result.Residual <= tol {
			return result, nil
		}
		if err := canceled(ctx); err != nil {
			return result, err
		}
		spIter := obs.StartSpanIn(ctx, "solver/newton_iter")
		st.prepare(ctx, fwd, r, res)

		accepted := false
		for tries := 0; tries < 12; tries++ {
			if err := canceled(ctx); err != nil {
				if spIter.Active() {
					spIter.End(obs.I("iter", iter), obs.F("residual", cost/zNorm))
				}
				return result, err
			}
			ok, err := st.solve(ctx, step, lambda)
			if err != nil {
				if spIter.Active() {
					spIter.End(obs.I("iter", iter), obs.F("residual", cost/zNorm))
				}
				return result, err
			}
			if !ok {
				lambda *= 10
				continue
			}
			rv, tv := r.Values(), trial.Values()
			for d := 0; d < nUnknown; d++ {
				tv[d] = rv[d] * math.Exp(-clamp(step[d], 2))
			}
			trialFwd, err := residualInto(trial, trialRes)
			if err != nil {
				lambda *= 10
				continue
			}
			if tn := trialRes.Norm2(); tn < cost {
				// Accept by swapping buffers: the rejected field/residual
				// become next try's scratch, so accepts allocate nothing.
				r, trial = trial, r
				res, trialRes = trialRes, res
				fwd, cost = trialFwd, tn
				result.R = r
				lambda = math.Max(lambda/3, 1e-12)
				accepted = true
				break
			}
			lambda *= 10
		}
		if spIter.Active() {
			obs.Add("solver/iterations", 1)
			acc := 0
			if accepted {
				acc = 1
			}
			spIter.End(obs.I("iter", iter), obs.F("residual", cost/zNorm),
				obs.F("lambda", lambda), obs.I("accepted", acc))
		}
		if !accepted {
			result.Residual = cost / zNorm
			if result.Residual <= tol*10 {
				return result, nil // converged to numerical floor
			}
			return result, ErrDiverged
		}
	}
	result.Residual = cost / zNorm
	if result.Residual <= tol {
		return result, nil
	}
	return result, ErrDiverged
}

// rowGrain batches Jacobian rows per pool chunk: a row is m+n−1 entries on
// the sparse cross, m·n on the dense backend's small arrays, each a handful
// of flops, so sixteen rows make a chunk of microseconds.
const rowGrain = 16

// gnStepper is the Gauss-Newton linear-algebra backend behind one recovery:
// prepare linearizes at the accepted iterate (Jacobian, normal-equation
// state, right-hand side Jᵀ·res) and solve produces the damped step for one
// λ on the ladder. solve reports false to escalate damping (factorization
// or CG breakdown) and an error only for cancellation; stats feeds the
// result's backend-specific counters.
type gnStepper interface {
	prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector)
	solve(ctx context.Context, step mat.Vector, lambda float64) (bool, error)
	stats() (cgIters, nnz int)
}

// denseStepper is the materialized backend: full Jacobian, one-pass SYRK
// JᵀJ, Cholesky on the damped copy with pivoted-LU fallback. Unbeatable at
// the paper's 16×16 reference size; O((mn)³) per solve.
type denseStepper struct {
	jac, jtj, aug *mat.Matrix
	jtr           mat.Vector
}

func newDenseStepper(m, n int) *denseStepper {
	u := m * n
	return &denseStepper{
		jac: mat.NewMatrix(u, u), jtj: mat.NewMatrix(u, u),
		aug: mat.NewMatrix(u, u), jtr: mat.NewVector(u),
	}
}

func (st *denseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	assembleJacobian(ctx, st.jac, fwd, r)
	st.jac.ATAInto(st.jtj)
	st.jac.MulTVecTo(st.jtr, res)
}

func (st *denseStepper) solve(_ context.Context, step mat.Vector, lambda float64) (bool, error) {
	// Damp in the reusable scratch matrix: aug = jtj + λ·diag. The in-place
	// Cholesky destroys aug, which is fine — it is rebuilt from jtj on the
	// next retry (an O((mn)²) copy, not an allocation).
	buildDamped(st.aug, st.jtj, lambda)
	return solveDamped(st.aug, st.jtj, st.jtr, step, lambda), nil
}

func (st *denseStepper) stats() (int, int) { return 0, 0 }

// jacEntry is the log-space Jacobian entry ∂Z_pq/∂R_kl · R_kl for the
// potential drop pair (p, q)'s unit current puts across resistor (k, l):
// circuit.Solver.Sensitivity's (drop/R)², scaled by R. The sparse backend
// does not go through it (it stores drop² and scales by 1/R), which makes the
// exact-mode golden test an independent check of that factorization.
func jacEntry(drop, r float64) float64 {
	ratio := drop / r
	return ratio * ratio * r
}

// jacobianRow fills row with pair pq's Jacobian entries over every unknown.
// The pair's wire potentials are the difference of two rows of fwd's
// inverse (node k is horizontal wire k, node m+l vertical wire l —
// grid.Array.WireVertex's layout), read in place.
func jacobianRow(row []float64, fwd *circuit.Solver, m, n, pq int, rv []float64) {
	gu, gv := fwd.Green(pq/n), fwd.Green(m+pq%n)
	for k := 0; k < m; k++ {
		xk := gu[k] - gv[k]
		for l := 0; l < n; l++ {
			row[k*n+l] = jacEntry(xk-(gu[m+l]-gv[m+l]), rv[k*n+l])
		}
	}
}

// assembleJacobian fills jac with the log-space Jacobian
// J[pq, kl] = ∂Z_pq/∂R_kl · R_kl, fanning the m·n rows across the shared
// kernel pool. Each pair owns one Jacobian row, so workers write disjoint
// memory and need no locks; fwd is immutable after construction (pinned
// under -race in internal/circuit), which is what makes the concurrent
// reads sound.
func assembleJacobian(ctx context.Context, jac *mat.Matrix, fwd *circuit.Solver, r *grid.Field) {
	m, n := r.Rows(), r.Cols()
	sp := obs.StartSpanIn(ctx, "solver/jacobian")
	rv := r.Values()
	mat.ParallelFor(m*n, rowGrain, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			jacobianRow(jac.Row(pq), fwd, m, n, pq, rv)
		}
	})
	if sp.Active() {
		sp.End(obs.I("pairs", m*n))
	}
}

// buildDamped sets aug = jtj + λ·(diag(jtj) + 1e-12·I).
func buildDamped(aug, jtj *mat.Matrix, lambda float64) {
	aug.CopyFrom(jtj)
	for d := 0; d < jtj.Rows(); d++ {
		aug.Add(d, d, lambda*(jtj.At(d, d)+1e-12))
	}
}

// solveDamped solves aug·step = jtr into step. The damped normal equations
// are SPD by construction, so Cholesky (half the arithmetic of pivoted LU,
// no pivot search) is the primary path; on numerical breakdown aug is
// rebuilt and pivoted LU has the final word. It reports whether a step was
// produced — false sends the caller up the damping ladder.
func solveDamped(aug, jtj *mat.Matrix, jtr, step mat.Vector, lambda float64) bool {
	if chol, err := mat.CholeskyInPlace(aug); err == nil {
		chol.SolveTo(step, jtr)
		return true
	}
	obs.Add("solver/cholesky_fallbacks", 1)
	buildDamped(aug, jtj, lambda) // the failed factorization clobbered aug
	lu, err := mat.Factorize(aug)
	if err != nil {
		return false
	}
	copy(step, lu.Solve(jtr))
	return true
}

// clamp limits |x| to bound, preserving sign — a trust region on log steps.
func clamp(x, bound float64) float64 {
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}

package solver

// The sparse Gauss-Newton backend of Recover: the linearization held as one
// symmetric CSR matrix on the per-geometry cross pattern, the damped normal
// equations solved matrix-free by preconditioned conjugate gradient — two
// SpMVs and a diagonal Levenberg shift per CG iteration instead of a dense
// SYRK and Cholesky — and numeric-only per-iteration refresh. The pattern is
// the Plan's, a function of the geometry alone; what the cross leaves out
// (TestSparsityRationale measures it) can cost iterations but never corrupt
// the recovered field, because the outer LM loop accepts a step only when the
// exact forward residual decreases.
//
// One matrix is enough because the forward model is reciprocal: the drop
// pair (p,q)'s unit current puts across resistor (k,l) is
// (e_p − e_{m+q})ᵀ·G·(e_k − e_{m+l}) with G = L_g⁻¹ symmetric, which is also
// the drop pair (k,l) puts across resistor (p,q). So the log-space Jacobian
// J[pq,kl] = drop²/R_kl factors as J = S·D⁻¹ with S = drop² symmetric and
// D = diag(R), and Jᵀ = D⁻¹·S needs no second copy.

import (
	"context"
	"errors"
	"fmt"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
	"parma/internal/sparse"
)

// Relative residual targets of each damped normal-equation CG solve.
const (
	// defaultCGTol is tight enough that accepted LM steps track the dense
	// Cholesky steps, loose enough not to burn SpMVs polishing a direction
	// the damping ladder may reject anyway.
	defaultCGTol = 1e-10
	// exactCGTol is the oracle's (RecoverOptions.exact): the iterative solve
	// has to agree with Cholesky to the golden test's 1e-9.
	exactCGTol = 1e-13
)

// sparseStepper solves the damped Gauss-Newton normal equations on one CSR
// matrix. One stepper serves one recovery; it is also the sparse.Operator its
// CG solves run on.
type sparseStepper struct {
	s     *sparse.CSR // S[pq,kl] = drop², bit-symmetric after prepare
	invR  mat.Vector  // D⁻¹: J = S·D⁻¹, Jᵀ = D⁻¹·S
	cgTol float64

	// Iteration-scoped numeric state, refreshed by prepare.
	jtr  mat.Vector // Jᵀ·res, the damped systems' right-hand side
	diag mat.Vector // diag(JᵀJ) + the same 1e-12 floor the dense path damps

	// Per-solve scratch.
	shifted mat.Vector // λ·diag, the Levenberg diagonal shift
	invDiag mat.Vector
	apScr   mat.Vector // S·D⁻¹·x scratch for Apply
	ws      sparse.Workspace

	cgIters int // cumulative across the recovery, reported in the result
}

func newSparseStepper(m, n int, exact bool) *sparseStepper {
	build, cgTol := NewPlan, defaultCGTol
	if exact {
		build, cgTol = newFullPlan, exactCGTol
	}
	u := m * n
	p := build(m, n)
	return &sparseStepper{
		s:     sparse.FromPattern(u, u, p.rowPtr, p.colIdx),
		invR:  mat.NewVector(u),
		cgTol: cgTol,
		jtr:   mat.NewVector(u), diag: mat.NewVector(u),
		shifted: mat.NewVector(u), invDiag: mat.NewVector(u),
		apScr: mat.NewVector(u),
	}
}

func (st *sparseStepper) stats() (int, int) { return st.cgIters, st.s.NNZ() }

// prepare assembles the linearization at the current iterate: numeric refresh
// of S on the plan's pattern, 1/R, the right-hand side D⁻¹·(S·res), and the
// normal-matrix diagonal.
func (st *sparseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	m, n := r.Rows(), r.Cols()
	sp := obs.StartSpanIn(ctx, "solver/jacobian_sparse")
	for d, v := range r.Values() {
		st.invR[d] = 1 / v
	}
	// Each pair owns one row; workers write disjoint slots and the per-slot
	// arithmetic is order-free, so the refresh is deterministic at any pool
	// width. The drop is jacobianRow's, read from the same two rows of the
	// forward model's inverse, but summed so that swapping the pair and the
	// resistor only commutes the two additions: with G bitwise symmetric
	// (TestGreenSymmetricAndGrounded), S[pq,kl] and S[kl,pq] are the same bits.
	mat.ParallelFor(m*n, rowGrain, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			gu, gv := fwd.Green(pq/n), fwd.Green(m+pq%n)
			cols, vals := st.s.RowVals(pq)
			for s, kl := range cols {
				k, l := kl/n, m+kl%n
				drop := (gu[k] + gv[l]) - (gv[k] + gu[l])
				vals[s] = drop * drop
			}
		}
	})
	st.s.MulVecTo(st.jtr, res)
	// diag(JᵀJ)[d] = Σ_pq (S[pq,d]/R_d)² is, by symmetry, the squared norm of
	// S's row d over R_d² — one worker per chunk of unknowns, accumulated in
	// index order, deterministic. The 1e-12 floor matches the dense path's
	// buildDamped.
	mat.ParallelFor(m*n, 64, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			w := st.invR[d]
			st.jtr[d] *= w
			_, sv := st.s.RowVals(d)
			var s float64
			for _, v := range sv {
				s += v * v
			}
			st.diag[d] = s*w*w + 1e-12
		}
	})
	if sp.Active() {
		sp.End(obs.I("pairs", m*n), obs.I("nnz", st.s.NNZ()))
	}
	obs.Add("sparse/flops", int64(4*st.s.NNZ()))
}

func (st *sparseStepper) Dim() int { return st.s.Rows() }

// Apply is the matrix-free damped normal operator
// (JᵀJ + λ·diag)·x = D⁻¹·S·(S·(D⁻¹·x)) + λ·diag∘x: two SpMVs on the one
// matrix. dst doubles as scratch: sparse.Operator promises it never aliases x.
func (st *sparseStepper) Apply(dst, x mat.Vector) {
	for i, w := range st.invR {
		dst[i] = w * x[i]
	}
	st.s.MulVecTo(st.apScr, dst)
	st.s.MulVecTo(dst, st.apScr)
	for i, w := range st.invR {
		dst[i] = w*dst[i] + st.shifted[i]*x[i]
	}
}

// solve computes the damped step for the current λ. It reports false to
// send the caller up the damping ladder (CG breakdown: the operator was
// not SPD enough at this λ) and an error only for cancellation. A CG run
// that merely exhausts its budget still yields a usable inexact direction —
// the LM acceptance test judges it against the exact residual.
func (st *sparseStepper) solve(ctx context.Context, step mat.Vector, lambda float64) (bool, error) {
	// The damped diagonal is the whole preconditioner: one pass over values
	// prepare already computed (docs/performance.md has the CG counts that
	// settled on it).
	for i, d := range st.diag {
		st.shifted[i] = lambda * d
		st.invDiag[i] = 1 / (d + st.shifted[i])
	}
	pre := sparse.Jacobi{InvDiag: st.invDiag}
	sp := obs.StartSpanIn(ctx, "solver/sparse_step")
	x, stats, err := sparse.CGOp(ctx, &st.ws, st, st.jtr, pre, sparse.CGOptions{Tol: st.cgTol})
	st.cgIters += stats.Iterations
	obs.Add("sparse/flops", int64(stats.Iterations)*int64(8*st.s.NNZ()+6*len(st.jtr)))
	if sp.Active() {
		sp.End(obs.I("cg_iters", stats.Iterations), obs.F("cg_residual", stats.Residual),
			obs.F("lambda", lambda))
	}
	if err != nil {
		if ctx.Err() != nil {
			return false, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		if errors.Is(err, sparse.ErrNoConvergence) {
			// Inexact step: let the damped acceptance test judge it.
			obs.Add("solver/cg_noconv", 1)
			copy(step, x)
			return true, nil
		}
		// Breakdown — climb the damping ladder like the dense Cholesky path.
		obs.Add("solver/cg_breakdowns", 1)
		return false, nil
	}
	copy(step, x)
	return true, nil
}

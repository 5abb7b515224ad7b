package solver

// The sparse Gauss-Newton backend of Recover: the linearization held as one
// symmetric matrix on the per-geometry cross pattern, stored as m + n dense
// blocks (cross.go), the damped normal equations solved matrix-free by
// preconditioned conjugate gradient — two S·x products and a diagonal
// Levenberg shift per CG iteration instead of a dense SYRK and Cholesky — and
// numeric-only per-iteration refresh. The pattern is a function of the
// geometry alone; what the cross leaves out (TestSparsityRationale measures
// it) can cost iterations but never corrupt the recovered field, because the
// outer LM loop accepts a step only when the exact forward residual
// decreases.
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

// exactCGTol is the oracle's (RecoverOptions.exact) relative residual target
// for each damped normal-equation CG solve: the iterative solve has to agree
// with Cholesky to the golden test's 1e-9.
const exactCGTol = 1e-13

// defaultCGTol is the production target: an inexact Newton step (Eisenstat
// and Walker, SIAM J. Sci. Comput. 1996) solved only as accurately as the
// LM accept test can use. On eight cold 64×64 media (2-vCPU VM, go1.24.0)
// 1e-10 / 1e-6 / 1e-5 / 1e-4 took the same 104 LM iterations and 144
// damped solves in 5391 / 3156 / 2550 / 1990 CG iterations, max relative
// error against the hidden field 9.8e-6 / 9.7e-6 / 9.2e-6 / 8.1e-6, and
// 612–632 / 392 / 324 / 244–284 ms per recovery. 3e-4 doubled the error
// (2.0e-5) and 1e-3 added LM iterations (111); an Eisenstat–Walker
// forcing term capped at 1e-4 always sat at the cap, so it is this
// constant. It is a variable only so that TestInexactStepsKeepLMTrajectory
// can run the tight solve it replaced.
var defaultCGTol = 1e-4

// sparseStepper solves the damped Gauss-Newton normal equations on one
// symmetric matrix S (cross.go). One stepper serves one recovery; it is also
// the sparse.Operator its CG solves run on.
type sparseStepper struct {
	s     stepMatrix // S[pq,kl] = drop², bit-symmetric after prepare
	invR  mat.Vector // D⁻¹: J = S·D⁻¹, Jᵀ = D⁻¹·S
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
	var s stepMatrix = newCrossBlocks(m, n)
	cgTol := defaultCGTol
	if exact {
		s, cgTol = newFullS(m, n), exactCGTol
	}
	u := m * n
	return &sparseStepper{
		s:     s,
		invR:  mat.NewVector(u),
		cgTol: cgTol,
		jtr:   mat.NewVector(u), diag: mat.NewVector(u),
		shifted: mat.NewVector(u), invDiag: mat.NewVector(u),
		apScr: mat.NewVector(u),
	}
}

func (st *sparseStepper) stats() (int, int) { return st.cgIters, st.s.nnz() }

// prepare assembles the linearization at the current iterate: numeric refresh
// of S, 1/R, the right-hand side D⁻¹·(S·res), and the normal-matrix diagonal.
func (st *sparseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	sp := obs.StartSpanIn(ctx, "solver/jacobian_sparse")
	for d, v := range r.Values() {
		st.invR[d] = 1 / v
	}
	// Each pair owns one row of S and the one diagonal entry it feeds:
	// diag(JᵀJ)[d] = Σ_pq (S[pq,d]/R_d)² is, by symmetry, the squared norm of
	// S's row d over R_d². Workers write disjoint slots and each row is summed
	// in a fixed order, so the refresh is deterministic at any pool width. The
	// drop is jacobianRow's, read from the same two rows of the forward
	// model's inverse. The 1e-12 floor matches the dense path's buildDamped.
	mat.ParallelFor(len(st.invR), rowGrain, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			w := st.invR[pq]
			st.diag[pq] = st.s.fillRow(fwd, pq)*w*w + 1e-12
		}
	})
	st.s.mulVec(st.jtr, res)
	for d, w := range st.invR {
		st.jtr[d] *= w
	}
	if sp.Active() {
		sp.End(obs.I("pairs", len(st.invR)), obs.I("nnz", st.s.nnz()))
	}
}

func (st *sparseStepper) Dim() int { return len(st.invR) }

// Apply is the matrix-free damped normal operator
// (JᵀJ + λ·diag)·x = D⁻¹·S·(S·(D⁻¹·x)) + λ·diag∘x: two products with the one
// matrix. dst doubles as scratch: sparse.Operator promises it never aliases x.
func (st *sparseStepper) Apply(dst, x mat.Vector) {
	for i, w := range st.invR {
		dst[i] = w * x[i]
	}
	st.s.mulVec(st.apScr, dst)
	st.s.mulVec(dst, st.apScr)
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

package solver

// The sparse Gauss-Newton backend of Recover: the linearization held as one
// symmetric matrix on the per-geometry cross pattern, stored as m + n dense
// blocks (cross.go), and the damped Gauss-Newton system solved square and
// matrix-free by preconditioned conjugate gradient — one S·x product and a
// diagonal Levenberg shift per CG iteration instead of a dense SYRK and
// Cholesky — with numeric-only per-iteration refresh. The pattern is a
// function of the geometry alone; what the cross leaves out
// (TestSparsityRationale measures it) can cost iterations but never corrupt
// the recovered field, because the outer LM loop accepts a step only when
// the exact forward residual decreases.
//
// One matrix is enough because the forward model is reciprocal: the drop
// pair (p,q)'s unit current puts across resistor (k,l) is
// (e_p − e_{m+q})ᵀ·G·(e_k − e_{m+l}) with G = L_g⁻¹ symmetric, which is also
// the drop pair (k,l) puts across resistor (p,q). So the log-space Jacobian
// J[pq,kl] = drop²/R_kl factors as J = S·D⁻¹ with S = drop² symmetric and
// D = diag(R). The crossbar measures as many pairs as it has resistors, so J
// is square and the Gauss-Newton step J·step = res is S·y = res with
// step = D·y. The full S is positive semidefinite (the Hadamard square of
// the Gram matrix BᵀGB, by the Schur product theorem), so CG runs on S
// itself, damped like LM: (S + λ·Λ)·y = res with Λ = diag S. Solving the
// normal equations (JᵀJ + λ·diag)·step = Jᵀ·res instead would cost two
// products per CG iteration plus one for Jᵀ·res, on S's condition number
// squared.

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
// for each damped square CG solve: the iterative solve has to agree with the
// dense step's Cholesky to the golden test's 1e-9.
const exactCGTol = 1e-13

// defaultCGTol is the production target: an inexact Newton step (Eisenstat
// and Walker, SIAM J. Sci. Comput. 1996) solved only as accurately as the
// LM accept test can use. It was chosen on the normal equations the square
// step replaced: on eight cold 64×64 media (2-vCPU VM, go1.24.0) 1e-10 /
// 1e-6 / 1e-5 / 1e-4 took the same 104 LM iterations and 144 damped solves
// in 5391 / 3156 / 2550 / 1990 CG iterations, max relative error against
// the hidden field 9.8e-6 / 9.7e-6 / 9.2e-6 / 8.1e-6, and 612–632 / 392 /
// 324 / 244–284 ms per recovery. 3e-4 doubled the error (2.0e-5) and 1e-3
// added LM iterations (111); an Eisenstat–Walker forcing term capped at
// 1e-4 always sat at the cap, so it is this constant. It is a variable only
// so that TestInexactStepsKeepLMTrajectory can run a tight solve beside it.
var defaultCGTol = 1e-4

// sparseStepper solves the damped square Gauss-Newton system on one
// symmetric matrix S (cross.go). One stepper serves one recovery; it is also
// the sparse.Operator its CG solves run on.
type sparseStepper struct {
	s     stepMatrix // S[pq,kl] = drop², bit-symmetric after prepare
	d     mat.Vector // D = diag(R): J = S·D⁻¹, step = D·y
	cgTol float64

	// Iteration-scoped numeric state, refreshed by prepare.
	res  mat.Vector // the residual, the damped systems' right-hand side
	diag mat.Vector // Λ = diag S + the same 1e-12 floor the dense path damps

	// Per-solve scratch.
	shifted mat.Vector // λ·Λ, the Levenberg diagonal shift
	invDiag mat.Vector
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
		d:     mat.NewVector(u),
		cgTol: cgTol,
		diag:  mat.NewVector(u), shifted: mat.NewVector(u), invDiag: mat.NewVector(u),
	}
}

func (st *sparseStepper) stats() (int, int) { return st.cgIters, st.s.nnz() }

// prepare assembles the linearization at the current iterate: numeric
// refresh of S and Λ, and R. res is the right-hand side as it stands; the
// caller leaves it alone until the next prepare.
func (st *sparseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	sp := obs.StartSpanIn(ctx, "solver/jacobian_sparse")
	copy(st.d, r.Values())
	st.res = res
	// One task writes each entry of S and each diagonal slot, so the
	// refresh is deterministic at any pool width. The drop is jacobianRow's,
	// read from the same two rows of the forward model's inverse. The 1e-12
	// floor matches the dense path's.
	st.s.refresh(fwd, st.diag)
	for i := range st.diag {
		st.diag[i] += 1e-12
	}
	if sp.Active() {
		sp.End(obs.I("pairs", len(st.d)), obs.I("nnz", st.s.nnz()))
	}
}

func (st *sparseStepper) Dim() int { return len(st.d) }

// Apply is the damped square operator (S + λ·Λ)·x: one product with the
// matrix and the diagonal shift.
func (st *sparseStepper) Apply(dst, x mat.Vector) {
	st.s.mulVec(dst, x)
	for i, v := range st.shifted {
		dst[i] += v * x[i]
	}
}

// solve computes the damped step D·y, (S + λ·Λ)·y = res, for the current λ.
// It reports false to send the caller up the damping ladder (CG breakdown:
// the operator was not SPD enough at this λ) and an error only for
// cancellation. A CG run that merely exhausts its budget still yields a
// usable inexact direction — the LM acceptance test judges it against the
// exact residual.
func (st *sparseStepper) solve(ctx context.Context, step mat.Vector, lambda float64) (bool, error) {
	// The damped diagonal 1/((1+λ)·Λ) is the whole preconditioner: one pass
	// over values prepare already computed (docs/performance.md has the CG
	// counts that settled on it).
	for i, d := range st.diag {
		st.shifted[i] = lambda * d
		st.invDiag[i] = 1 / (d + st.shifted[i])
	}
	pre := sparse.Jacobi{InvDiag: st.invDiag}
	sp := obs.StartSpanIn(ctx, "solver/sparse_step")
	y, stats, err := sparse.CGOp(ctx, &st.ws, st, st.res, pre, sparse.CGOptions{Tol: st.cgTol})
	st.cgIters += stats.Iterations
	if sp.Active() {
		sp.End(obs.I("cg_iters", stats.Iterations), obs.F("cg_residual", stats.Residual),
			obs.F("lambda", lambda))
	}
	if err != nil {
		if ctx.Err() != nil {
			return false, fmt.Errorf("%w: %w", ErrCanceled, err)
		}
		if !errors.Is(err, sparse.ErrNoConvergence) {
			// Breakdown — climb the damping ladder like the dense Cholesky path.
			obs.Add("solver/cg_breakdowns", 1)
			return false, nil
		}
		// Inexact step: let the damped acceptance test judge it.
		obs.Add("solver/cg_noconv", 1)
	}
	for i, v := range y {
		step[i] = st.d[i] * v
	}
	return true, nil
}

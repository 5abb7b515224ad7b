package solver

// The sparse Gauss-Newton backend of Recover: a CSR Jacobian on the
// per-geometry cross pattern, the damped normal equations solved matrix-free
// by preconditioned conjugate gradient — two SpMVs and a diagonal Levenberg
// shift per CG iteration instead of a dense SYRK and Cholesky — and
// numeric-only per-iteration refresh of every symbolic structure. The
// pattern is the Plan's, a function of the geometry alone; what the cross
// leaves out (TestSparsityRationale measures it) can cost iterations but
// never corrupt the recovered field, because the outer LM loop accepts a
// step only when the exact forward residual decreases.

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

// sparseStepper solves the damped Gauss-Newton normal equations on CSR
// structures. One stepper serves one recovery and owns only values: the index
// arrays and the gather permutation are the plan's, which may be shared
// across recoveries (serve caches one per geometry).
type sparseStepper struct {
	j, jt *sparse.CSR
	perm  []int
	cgTol float64

	// Iteration-scoped numeric state, refreshed by prepare.
	jtr  mat.Vector // Jᵀ·res, the damped systems' right-hand side
	diag mat.Vector // diag(JᵀJ) + the same 1e-12 floor the dense path damps

	// Per-solve scratch.
	shifted mat.Vector // λ·diag, the Levenberg diagonal shift
	invDiag mat.Vector
	apScr   mat.Vector // pairs-length J·p scratch for the operator
	ws      sparse.Workspace

	cgIters int // cumulative across the recovery, reported in the result
}

func newSparseStepper(arr grid.Array, opts RecoverOptions) *sparseStepper {
	m, n := arr.Rows(), arr.Cols()
	plan, cgTol := opts.Plan, defaultCGTol
	if opts.exact {
		plan, cgTol = newFullPlan(m, n), exactCGTol
	} else if plan == nil || plan.Rows() != m || plan.Cols() != n {
		plan = NewPlan(m, n)
	}
	u := m * n
	return &sparseStepper{
		j:     sparse.FromPattern(u, u, plan.rowPtr, plan.colIdx),
		jt:    sparse.FromPattern(u, u, plan.rowPtr, plan.colIdx),
		perm:  plan.perm,
		cgTol: cgTol,
		jtr:   mat.NewVector(u), diag: mat.NewVector(u),
		shifted: mat.NewVector(u), invDiag: mat.NewVector(u),
		apScr: mat.NewVector(u),
	}
}

func (st *sparseStepper) stats() (int, int) { return st.cgIters, st.j.NNZ() }

// prepare assembles the linearization at the current iterate: numeric
// Jacobian refresh on the plan's pattern, transpose gather, right-hand side,
// and the normal-matrix diagonal.
func (st *sparseStepper) prepare(ctx context.Context, fwd *circuit.Solver, r *grid.Field, res mat.Vector) {
	m, n := r.Rows(), r.Cols()
	sp := obs.StartSpanIn(ctx, "solver/jacobian_sparse")
	rv := r.Values()
	// Each pair owns one Jacobian row; workers write disjoint slots and the
	// per-slot arithmetic is order-free, so the refresh is deterministic at
	// any pool width. Every slot is jacobianRow's entry for its column, read
	// from the same two rows of the forward model's inverse.
	mat.ParallelFor(m*n, rowGrain, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			gu, gv := fwd.Green(pq/n), fwd.Green(m+pq%n)
			cols, vals := st.j.RowVals(pq)
			for s, kl := range cols {
				k, l := kl/n, m+kl%n
				vals[s] = jacEntry((gu[k]-gv[k])-(gu[l]-gv[l]), rv[kl])
			}
		}
	})
	sparse.Gather(st.jt.Values(), st.j.Values(), st.perm)
	st.jt.MulVecTo(st.jtr, res)
	// diag(JᵀJ)[d] is the squared norm of Jᵀ's row d, accumulated in pair
	// order — one worker per chunk of unknowns, deterministic. The 1e-12
	// floor matches the dense path's buildDamped.
	mat.ParallelFor(m*n, 64, func(lo, hi int) {
		for d := lo; d < hi; d++ {
			_, tv := st.jt.RowVals(d)
			var s float64
			for _, v := range tv {
				s += v * v
			}
			st.diag[d] = s + 1e-12
		}
	})
	if sp.Active() {
		sp.End(obs.I("pairs", m*n), obs.I("nnz", st.j.NNZ()))
	}
	obs.Add("sparse/flops", int64(4*st.j.NNZ()))
}

// normalOperator is the matrix-free damped normal operator
// (JᵀJ + λ·diag)·p, applied as two SpMVs plus a diagonal shift.
type normalOperator struct {
	j, jt   *sparse.CSR
	shifted mat.Vector
	t       mat.Vector
}

func (o *normalOperator) Dim() int { return o.jt.Rows() }

func (o *normalOperator) Apply(dst, x mat.Vector) {
	o.j.MulVecTo(o.t, x)
	o.jt.MulVecTo(dst, o.t)
	for i, s := range o.shifted {
		dst[i] += s * x[i]
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
	op := &normalOperator{j: st.j, jt: st.jt, shifted: st.shifted, t: st.apScr}
	sp := obs.StartSpanIn(ctx, "solver/sparse_step")
	x, stats, err := sparse.CGOp(ctx, &st.ws, op, st.jtr, pre, sparse.CGOptions{Tol: st.cgTol})
	st.cgIters += stats.Iterations
	obs.Add("sparse/flops", int64(stats.Iterations)*int64(8*st.j.NNZ()+6*len(st.jtr)))
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

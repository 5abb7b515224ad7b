package solver

import (
	"fmt"
	"math"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/mat"
)

// This file implements the conventional reconstruction methods the paper
// cites in §I — the Landweber iteration, linear back projection (LBP), and
// Tikhonov regularization — as comparison baselines. All three linearize
// the forward map around a uniform background and, as the paper notes, are
// ill-posed: their output depends strongly on perturbations of the input.
// The experiments package quantifies that against the Levenberg-Marquardt
// recovery.

// linearization holds the forward map linearized at a uniform background:
// Z ≈ Z₀ + J·(R − R₀).
type linearization struct {
	arr grid.Array
	r0  *grid.Field
	z0  mat.Vector  // forward measurements at the background
	jac *mat.Matrix // ∂Z/∂R at the background, (mn) x (mn)
}

// linearize builds the background linearization from the mean measurement.
func linearize(a grid.Array, z *grid.Field) (*linearization, error) {
	m, n := a.Rows(), a.Cols()
	guess := z.Mean() * float64(m*n) / float64(m+n-1)
	r0 := grid.UniformField(m, n, guess)
	fwd, err := circuit.NewSolver(a, r0)
	if err != nil {
		return nil, fmt.Errorf("solver: linearization forward solve: %w", err)
	}
	lin := &linearization{arr: a, r0: r0, z0: mat.NewVector(m * n), jac: mat.NewMatrix(m*n, m*n)}
	for p := 0; p < m; p++ {
		for q := 0; q < n; q++ {
			row := p*n + q
			lin.z0[row] = fwd.EffectiveResistance(p, q)
			sens := fwd.Sensitivity(p, q, r0)
			dst := lin.jac.Row(row)
			for k := 0; k < m; k++ {
				for l := 0; l < n; l++ {
					dst[k*n+l] = sens.At(k, l)
				}
			}
		}
	}
	return lin, nil
}

// residual returns z − Z(R₀) as a vector.
func (lin *linearization) residual(z *grid.Field) mat.Vector {
	m, n := lin.arr.Rows(), lin.arr.Cols()
	out := mat.NewVector(m * n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out[i*n+j] = z.At(i, j) - lin.z0[i*n+j]
		}
	}
	return out
}

// toField adds a correction vector onto the background, flooring at a
// small positive resistance (resistance cannot be non-positive).
func (lin *linearization) toField(delta mat.Vector) *grid.Field {
	m, n := lin.arr.Rows(), lin.arr.Cols()
	out := grid.NewField(m, n)
	floor := lin.r0.At(0, 0) / 100
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			v := lin.r0.At(i, j) + delta[i*n+j]
			if v < floor {
				v = floor
			}
			out.Set(i, j, v)
		}
	}
	return out
}

// LBP reconstructs by linear back projection: ΔR = c · Jᵀ·(z − Z₀), the
// one-step method used for real-time tomography previews. The scaling c is
// chosen to minimize ‖J·ΔR − residual‖ along the back-projected direction.
// LBP is fast and famously blurry/ill-posed.
func LBP(a grid.Array, z *grid.Field) (*grid.Field, error) {
	if err := checkShapes(a, z); err != nil {
		return nil, err
	}
	lin, err := linearize(a, z)
	if err != nil {
		return nil, err
	}
	res := lin.residual(z)
	dir := lin.jac.Transpose().MulVec(res)
	jd := lin.jac.MulVec(dir)
	denom := jd.Dot(jd)
	c := 0.0
	if denom > 0 {
		c = jd.Dot(res) / denom
	}
	return lin.toField(dir.Scale(c)), nil
}

// LandweberOptions configures the Landweber iteration.
type LandweberOptions struct {
	// Iterations bounds the iteration count; zero selects 200.
	Iterations int
	// Relaxation scales the step; zero selects 1/‖JᵀJ‖ estimated by a few
	// power iterations (the classical convergent choice).
	Relaxation float64
}

// Landweber reconstructs by the relaxed gradient iteration
// ΔR ← ΔR + ω·Jᵀ(residual − J·ΔR). With early stopping it regularizes
// mildly; run long enough it converges to the unregularized least-squares
// solution and inherits its noise sensitivity.
func Landweber(a grid.Array, z *grid.Field, opts LandweberOptions) (*grid.Field, error) {
	if err := checkShapes(a, z); err != nil {
		return nil, err
	}
	lin, err := linearize(a, z)
	if err != nil {
		return nil, err
	}
	iters := opts.Iterations
	if iters == 0 {
		iters = 200
	}
	omega := opts.Relaxation
	if omega == 0 { // zero is the "unset option" sentinel, assigned not computed
		omega = 1 / (powerNormSq(lin.jac) * 1.01)
	}
	res := lin.residual(z)
	delta := mat.NewVector(len(res))
	jt := lin.jac.Transpose()
	for it := 0; it < iters; it++ {
		// gradient step on ½‖J·Δ − res‖².
		defect := lin.jac.MulVec(delta).Sub(res)
		delta.AddScaled(-omega, jt.MulVec(defect))
	}
	return lin.toField(delta), nil
}

// TikhonovOptions configures Tikhonov-regularized reconstruction.
type TikhonovOptions struct {
	// Lambda is the regularization weight; zero selects 1e-3 times the
	// mean diagonal of JᵀJ.
	Lambda float64
}

// Tikhonov reconstructs by solving (JᵀJ + λI)·ΔR = Jᵀ·residual — the
// classical regularized linear inversion. λ trades noise amplification for
// bias toward the background.
func Tikhonov(a grid.Array, z *grid.Field, opts TikhonovOptions) (*grid.Field, error) {
	if err := checkShapes(a, z); err != nil {
		return nil, err
	}
	lin, err := linearize(a, z)
	if err != nil {
		return nil, err
	}
	jt := lin.jac.Transpose()
	jtj := jt.Mul(lin.jac)
	nUnknown := jtj.Rows()
	lambda := opts.Lambda
	if lambda == 0 { // zero is the "unset option" sentinel, assigned not computed
		trace := 0.0
		for d := 0; d < nUnknown; d++ {
			trace += jtj.At(d, d)
		}
		lambda = 1e-3 * trace / float64(nUnknown)
	}
	for d := 0; d < nUnknown; d++ {
		jtj.Add(d, d, lambda)
	}
	rhs := jt.MulVec(lin.residual(z))
	delta, err := mat.Solve(jtj, rhs)
	if err != nil {
		return nil, fmt.Errorf("solver: Tikhonov solve: %w", err)
	}
	return lin.toField(delta), nil
}

func checkShapes(a grid.Array, z *grid.Field) error {
	if z.Rows() != a.Rows() || z.Cols() != a.Cols() {
		return fmt.Errorf("solver: Z is %dx%d but array is %dx%d", z.Rows(), z.Cols(), a.Rows(), a.Cols())
	}
	return nil
}

// powerNormSq estimates ‖J‖² (the largest eigenvalue of JᵀJ) with a few
// power iterations.
func powerNormSq(j *mat.Matrix) float64 {
	n := j.Cols()
	v := mat.NewVector(n)
	for i := range v {
		v[i] = 1 / math.Sqrt(float64(n))
	}
	jt := j.Transpose()
	lambda := 1.0
	for it := 0; it < 30; it++ {
		w := jt.MulVec(j.MulVec(v))
		norm := w.Norm2()
		if norm == 0 { // exact-zero iterate guard before dividing by the norm
			return 1
		}
		lambda = norm
		v = w.Scale(1 / norm)
	}
	return lambda
}

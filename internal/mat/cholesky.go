package mat

import (
	"errors"
	"fmt"
	"math"

	"parma/internal/obs"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a matrix
// that is not positive definite to working precision. For the damped
// normal equations this signals numerical breakdown, not a bug — callers
// fall back to pivoted LU (see solver.Recover).
var ErrNotSPD = errors.New("mat: matrix is not positive definite to working precision")

// Cholesky holds the lower-triangular factor L with A = L·Lᵀ of a symmetric
// positive definite matrix. It solves SPD systems in roughly half the
// arithmetic of pivoted LU, with no pivot search — SPD matrices never need
// one.
type Cholesky struct {
	l *Matrix // lower triangle holds L; the strict upper triangle is untouched
}

// NewCholesky factorizes the SPD matrix a, leaving a unmodified. Only the
// lower triangle of a is read, so a symmetric matrix with a stale upper
// triangle factorizes correctly. It returns ErrNotSPD on breakdown.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	return CholeskyInPlace(a.Clone())
}

// CholeskyInPlace factorizes a in place: on success a's lower triangle is
// overwritten with L and the returned Cholesky aliases a. On ErrNotSPD a is
// left partially overwritten — rebuild it before reuse. The in-place form
// is what lets the recovery loop refactorize its scratch matrix every
// damping retry without allocating an (mn)² matrix each time.
func CholeskyInPlace(a *Matrix) (*Cholesky, error) {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: Cholesky requires a square matrix, got %dx%d", a.rows, a.cols))
	}
	n := a.rows
	sp := obs.StartSpan("mat/cholesky")
	// Cholesky–Crout, row-major friendly: column j is produced from dot
	// products of already-final row prefixes, so the i-loop below is
	// embarrassingly parallel within a column and reads rows contiguously.
	for j := 0; j < n; j++ {
		rj := a.Row(j)
		var s float64
		for k := 0; k < j; k++ {
			s += rj[k] * rj[k]
		}
		d := rj[j] - s
		if d <= 0 || math.IsNaN(d) {
			if sp.Active() {
				sp.End(obs.I("order", n), obs.I("breakdown_col", j))
			}
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrNotSPD, d, j)
		}
		diag := math.Sqrt(d)
		rj[j] = diag
		inv := 1 / diag
		ParallelFor(n-j-1, grainFor(2*j+2), func(lo, hi int) {
			for i := j + 1 + lo; i < j+1+hi; i++ {
				ri := a.Row(i)
				var t float64
				for k := 0; k < j; k++ {
					t += ri[k] * rj[k]
				}
				ri[j] = (ri[j] - t) * inv
			}
		})
	}
	if sp.Active() {
		sp.End(obs.I("order", n))
	}
	obs.Add("mat/flops", int64(n)*int64(n)*int64(n)/3)
	return &Cholesky{l: a}, nil
}

// Solve returns x with A·x = b for the factorized A.
func (c *Cholesky) Solve(b Vector) Vector {
	x := NewVector(len(b))
	c.SolveTo(x, b)
	return x
}

// SolveTo computes x with A·x = b into the provided x, avoiding allocation.
// x and b may be the same vector (the solve is in place).
func (c *Cholesky) SolveTo(x, b Vector) {
	n := c.l.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("mat: Cholesky.SolveTo lengths x[%d], b[%d] do not match order %d", len(x), len(b), n))
	}
	if n == 0 {
		return
	}
	if &x[0] != &b[0] {
		copy(x, b)
	}
	// Forward substitution with L.
	for i := 0; i < n; i++ {
		ri := c.l.Row(i)
		var s float64
		for k := 0; k < i; k++ {
			s += ri[k] * x[k]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	// Backward substitution with Lᵀ (column access over L).
	for i := n - 1; i >= 0; i-- {
		var s float64
		for k := i + 1; k < n; k++ {
			s += c.l.data[k*n+i] * x[k]
		}
		x[i] = (x[i] - s) / c.l.data[i*n+i]
	}
}

// InverseTo writes A⁻¹ = L⁻ᵀ·L⁻¹ into dst, which must be order × order and
// must not alias the factorized matrix. It costs two thirds of an n³ and
// allocates nothing: W = L⁻¹ is built row by row in dst's lower triangle,
// WᵀW overwrites it in place, and the result is mirrored, so dst is exactly
// symmetric. Every entry is accumulated in one fixed order — the inverse
// does not depend on Parallelism.
func (c *Cholesky) InverseTo(dst *Matrix) {
	n := c.l.rows
	if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("mat: Cholesky.InverseTo dst is %dx%d, want %dx%d", dst.rows, dst.cols, n, n))
	}
	// Row i of W solves (row i of L)·W = e_iᵀ against the finished rows
	// above it: W[i,:i] = −(Σ_{k<i} L[i,k]·W[k,:]) / L[i,i].
	for i := 0; i < n; i++ {
		li, wi := c.l.Row(i), dst.Row(i)[:i+1]
		for j := range wi {
			wi[j] = 0
		}
		for k := 0; k < i; k++ {
			lik := li[k]
			for j, w := range dst.Row(k)[:k+1] {
				wi[j] += lik * w
			}
		}
		inv := 1 / li[i]
		for j := range wi[:i] {
			wi[j] *= -inv
		}
		wi[i] = inv
	}
	// (WᵀW)[i,j] = Σ_{k≥i} W[k,i]·W[k,j] for j ≤ i reads rows i and below
	// only, so ascending i may overwrite row i as it goes.
	for i := 0; i < n; i++ {
		bi := dst.Row(i)[:i+1]
		wii := bi[i]
		for j := range bi {
			bi[j] *= wii
		}
		for k := i + 1; k < n; k++ {
			wk := dst.Row(k)[:i+1]
			wki := wk[i]
			for j, w := range wk {
				bi[j] += wki * w
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dst.data[i*n+j] = dst.data[j*n+i]
		}
	}
	obs.Add("mat/flops", 2*int64(n)*int64(n)*int64(n)/3)
}

// SolveSPD computes x with a·x = b via Cholesky factorization, falling
// back on nothing: callers wanting an LU fallback on breakdown compose it
// themselves (the recovery loop does).
func SolveSPD(a *Matrix, b Vector) (Vector, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Solve(b), nil
}

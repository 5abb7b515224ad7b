package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular to working precision.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Matrix // packed L (unit lower, implicit diagonal) and U
	piv  []int   // row permutation
	sign int     // determinant sign of the permutation
}

// Factorize computes the LU factorization of the square matrix a.
// a is not modified. It returns ErrSingular for singular input.
func Factorize(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		panic(fmt.Sprintf("mat: Factorize requires a square matrix, got %dx%d", a.Rows(), a.Cols()))
	}
	n := a.Rows()
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for col := 0; col < n; col++ {
		// Partial pivoting: choose the largest magnitude entry in the column.
		p := col
		maxAbs := math.Abs(lu.At(col, col))
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.At(r, col)); a > maxAbs {
				maxAbs = a
				p = r
			}
		}
		if maxAbs == 0 { // an exactly-zero pivot column means structural singularity; no computed rounding is involved
			return nil, ErrSingular
		}
		if p != col {
			rp, rc := lu.Row(p), lu.Row(col)
			for k := range rp {
				rp[k], rc[k] = rc[k], rp[k]
			}
			piv[p], piv[col] = piv[col], piv[p]
			sign = -sign
		}
		pivot := lu.At(col, col)
		for r := col + 1; r < n; r++ {
			f := lu.At(r, col) / pivot
			lu.Set(r, col, f)
			if f == 0 { // sparsity skip: only an exact zero multiplier makes the row update a no-op
				continue
			}
			rr, rc := lu.Row(r), lu.Row(col)
			for k := col + 1; k < n; k++ {
				rr[k] -= f * rc[k]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve returns x with A·x = b for the factorized A.
func (f *LU) Solve(b Vector) Vector {
	n := f.lu.Rows()
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU.Solve length %d does not match order %d", len(b), n))
	}
	x := NewVector(n)
	// Apply permutation: x = P·b.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower triangle.
	for i := 1; i < n; i++ {
		row := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += row[j] * x[j]
		}
		x[i] -= s
	}
	// Backward substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.Row(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += row[j] * x[j]
		}
		x[i] = (x[i] - s) / row[i]
	}
	return x
}

// Det returns the determinant of the factorized matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Solve computes x with a·x = b via LU factorization.
func Solve(a *Matrix, b Vector) (Vector, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b), nil
}

// Inverse returns a⁻¹, or ErrSingular.
func Inverse(a *Matrix) (*Matrix, error) {
	f, err := Factorize(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows()
	inv := NewMatrix(n, n)
	e := NewVector(n)
	for j := 0; j < n; j++ {
		e.Fill(0)
		e[j] = 1
		col := f.Solve(e)
		for i := 0; i < n; i++ {
			inv.Set(i, j, col[i])
		}
	}
	return inv, nil
}

// SolveLeastSquares returns the x minimizing ‖a·x − b‖₂ via the normal
// equations (aᵀa)x = aᵀb. Suitable for the small, well-conditioned systems
// arising in Gauss-Newton steps; it returns ErrSingular when aᵀa is singular.
func SolveLeastSquares(a *Matrix, b Vector) (Vector, error) {
	if len(b) != a.Rows() {
		panic(fmt.Sprintf("mat: SolveLeastSquares length %d does not match %d rows", len(b), a.Rows()))
	}
	at := a.Transpose()
	return Solve(at.Mul(a), at.MulVec(b))
}

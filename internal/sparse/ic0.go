package sparse

// Incomplete Cholesky with zero fill — IC(0) — on a fixed symmetric
// pattern. The factor L keeps exactly the lower triangle of the input
// pattern: the symbolic structure is computed once and only the numeric
// factorization reruns when the matrix values or the diagonal shift change.
//
// No production caller: the solver preconditions with Jacobi alone; only the
// sparse.ic0_* probes in benchmark/probes.go link this file, and it is to be
// deleted together with them in the next benchmark PR.

import (
	"errors"
	"fmt"
	"math"

	"parma/internal/mat"
)

// ErrIC0Breakdown is returned when the incomplete factorization hits a
// non-positive pivot — the pattern-restricted matrix is not positive
// definite enough for IC(0).
var ErrIC0Breakdown = errors.New("sparse: IC(0) pivot breakdown")

// IC0 is an incomplete Cholesky factor on a fixed lower-triangular pattern.
// Construct the symbolic structure with NewIC0 once, refresh numeric values
// with Refresh as often as the matrix changes, and apply with Precondition.
// An IC0 serves one solve pipeline at a time (Refresh mutates the factor).
type IC0 struct {
	n       int
	rowPtr  []int // lower triangle incl. diagonal, sorted columns
	colIdx  []int
	vals    []float64
	diagPos []int      // position of the diagonal slot within each row
	y       mat.Vector // scratch for the two triangular solves
}

// NewIC0 builds the symbolic factor for a square matrix with a's sparsity:
// the pattern is the lower triangle of a's pattern with the diagonal
// required present in every row. Values are not read; call Refresh before
// the first Precondition.
func NewIC0(a *CSR) (*IC0, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("sparse: IC(0) requires a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	n := a.Rows()
	ic := &IC0{n: n, rowPtr: make([]int, n+1), diagPos: make([]int, n), y: mat.NewVector(n)}
	for i := 0; i < n; i++ {
		cols, _ := a.RowVals(i)
		sawDiag := false
		for _, c := range cols {
			if c > i {
				break
			}
			if c == i {
				sawDiag = true
				ic.diagPos[i] = len(ic.colIdx)
			}
			ic.colIdx = append(ic.colIdx, c)
		}
		if !sawDiag {
			return nil, fmt.Errorf("sparse: IC(0) pattern is missing diagonal (%d,%d)", i, i)
		}
		ic.rowPtr[i+1] = len(ic.colIdx)
	}
	ic.vals = make([]float64, len(ic.colIdx))
	return ic, nil
}

// Refresh refactors numerically from a's current values plus an optional
// diagonal shift (nil means zero): the factored matrix is A + diag(shift).
// The Levenberg damping ladder reuses one symbolic factor across λ changes
// this way. On pivot breakdown the factor is left unusable and
// ErrIC0Breakdown is returned.
func (ic *IC0) Refresh(a *CSR, shift mat.Vector) error {
	if a.Rows() != ic.n || a.Cols() != ic.n {
		panic(fmt.Sprintf("sparse: IC(0) refresh with %dx%d matrix, want %dx%d", a.Rows(), a.Cols(), ic.n, ic.n))
	}
	if shift != nil && len(shift) != ic.n {
		panic(fmt.Sprintf("sparse: IC(0) shift length %d, want %d", len(shift), ic.n))
	}
	// Seed the factor with the shifted lower triangle of A.
	for i := 0; i < ic.n; i++ {
		cols, vals := a.RowVals(i)
		w := ic.rowPtr[i]
		for k, c := range cols {
			if c > i {
				break
			}
			v := vals[k]
			if c == i && shift != nil {
				v += shift[i]
			}
			ic.vals[w] = v
			w++
		}
	}
	// Row-wise up-looking factorization restricted to the pattern:
	// L[i][j] = (A[i][j] − ⟨L.row(i), L.row(j)⟩_{<j}) / L[j][j], then the
	// pivot L[i][i] = sqrt(A[i][i] − Σ L[i][t]²).
	for i := 0; i < ic.n; i++ {
		lo, hi := ic.rowPtr[i], ic.rowPtr[i+1]
		for k := lo; k < hi-1; k++ {
			j := ic.colIdx[k]
			dot := ic.partialDot(i, j, j)
			ic.vals[k] = (ic.vals[k] - dot) / ic.vals[ic.diagPos[j]]
		}
		var sq float64
		for k := lo; k < hi-1; k++ {
			sq += ic.vals[k] * ic.vals[k]
		}
		d := ic.vals[hi-1] - sq
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %g at row %d", ErrIC0Breakdown, d, i)
		}
		ic.vals[hi-1] = math.Sqrt(d)
	}
	return nil
}

// partialDot computes ⟨L.row(a), L.row(b)⟩ over columns strictly below cut,
// by sorted-index merge.
func (ic *IC0) partialDot(a, b, cut int) float64 {
	p, pend := ic.rowPtr[a], ic.rowPtr[a+1]
	q, qend := ic.rowPtr[b], ic.rowPtr[b+1]
	var s float64
	for p < pend && q < qend {
		ca, cb := ic.colIdx[p], ic.colIdx[q]
		if ca >= cut || cb >= cut {
			break
		}
		switch {
		case ca < cb:
			p++
		case ca > cb:
			q++
		default:
			s += ic.vals[p] * ic.vals[q]
			p++
			q++
		}
	}
	return s
}

// Precondition implements Preconditioner: dst = (L·Lᵀ)⁻¹ r via one forward
// and one backward triangular solve on the incomplete factor.
func (ic *IC0) Precondition(dst, r mat.Vector) {
	y := ic.y
	// Forward: L·y = r, rows in order.
	for i := 0; i < ic.n; i++ {
		lo, hi := ic.rowPtr[i], ic.rowPtr[i+1]
		s := r[i]
		for k := lo; k < hi-1; k++ {
			s -= ic.vals[k] * y[ic.colIdx[k]]
		}
		y[i] = s / ic.vals[hi-1]
	}
	// Backward: Lᵀ·dst = y with row access only — peel each solved entry
	// off the rows above it.
	copy(dst, y)
	for i := ic.n - 1; i >= 0; i-- {
		lo, hi := ic.rowPtr[i], ic.rowPtr[i+1]
		xi := dst[i] / ic.vals[hi-1]
		dst[i] = xi
		for k := lo; k < hi-1; k++ {
			dst[ic.colIdx[k]] -= ic.vals[k] * xi
		}
	}
}

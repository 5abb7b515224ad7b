package manifold

import (
	"fmt"

	"parma/internal/sched"
)

// OneForm is a discrete differential 1-form on the grid's edges: H[i][j] is
// the value on the horizontal edge from node (i, j) to (i, j+1) and V[i][j]
// on the vertical edge from (i, j) to (i+1, j). Voltage drops along wires
// are exactly such a 1-form.
type OneForm struct {
	rows, cols int // node counts
	h          []float64
	v          []float64
}

// NewOneForm returns a zero 1-form on a rows x cols node grid.
func NewOneForm(rows, cols int) *OneForm {
	if rows < 2 || cols < 2 {
		panic(fmt.Sprintf("manifold: 1-form needs at least 2x2 nodes, got %dx%d", rows, cols))
	}
	return &OneForm{
		rows: rows, cols: cols,
		h: make([]float64, rows*(cols-1)),
		v: make([]float64, (rows-1)*cols),
	}
}

// H returns the horizontal edge value from (i, j) to (i, j+1).
func (f *OneForm) H(i, j int) float64 { return f.h[i*(f.cols-1)+j] }

// SetH assigns the horizontal edge value.
func (f *OneForm) SetH(i, j int, x float64) { f.h[i*(f.cols-1)+j] = x }

// V returns the vertical edge value from (i, j) to (i+1, j).
func (f *OneForm) V(i, j int) float64 { return f.v[i*f.cols+j] }

// SetV assigns the vertical edge value.
func (f *OneForm) SetV(i, j int, x float64) { f.v[i*f.cols+j] = x }

// D returns the exterior derivative dU of a scalar field: the exact
// discrete gradient 1-form whose edge values are potential differences.
func D(s *ScalarField) *OneForm {
	f := NewOneForm(s.rows, s.cols)
	for i := 0; i < s.rows; i++ {
		for j := 0; j+1 < s.cols; j++ {
			f.SetH(i, j, s.At(i, j+1)-s.At(i, j))
		}
	}
	for i := 0; i+1 < s.rows; i++ {
		for j := 0; j < s.cols; j++ {
			f.SetV(i, j, s.At(i+1, j)-s.At(i, j))
		}
	}
	return f
}

// Curl returns the discrete exterior derivative dω evaluated on cell
// (i, j) — the counterclockwise circulation around the unit cell whose
// lower-left node is (i, j):
//
//	dω(i,j) = H(i,j) + V(i,j+1) − H(i+1,j) − V(i,j).
func (f *OneForm) Curl(i, j int) float64 {
	if i < 0 || i >= f.rows-1 || j < 0 || j >= f.cols-1 {
		panic(fmt.Sprintf("manifold: cell (%d,%d) out of range for %dx%d nodes", i, j, f.rows, f.cols))
	}
	return f.H(i, j) + f.V(i, j+1) - f.H(i+1, j) - f.V(i, j)
}

// Patch is a rectangle of cells: rows [I0, I1) x cols [J0, J1) in cell
// coordinates (a cell (i, j) spans nodes (i..i+1, j..j+1)).
type Patch struct{ I0, I1, J0, J1 int }

// Cells returns the number of cells in the patch.
func (p Patch) Cells() int { return (p.I1 - p.I0) * (p.J1 - p.J0) }

// Circulation integrates ω counterclockwise around the patch boundary.
func (f *OneForm) Circulation(p Patch) float64 {
	f.checkPatch(p)
	var s float64
	for j := p.J0; j < p.J1; j++ {
		s += f.H(p.I0, j) // bottom, rightward
		s -= f.H(p.I1, j) // top, leftward
	}
	for i := p.I0; i < p.I1; i++ {
		s += f.V(i, p.J1) // right side, upward
		s -= f.V(i, p.J0) // left side, downward
	}
	return s
}

// CurlIntegral sums the discrete curl over every cell of the patch — the
// right-hand side of the discrete Stokes theorem.
func (f *OneForm) CurlIntegral(p Patch) float64 {
	f.checkPatch(p)
	var s float64
	for i := p.I0; i < p.I1; i++ {
		for j := p.J0; j < p.J1; j++ {
			s += f.Curl(i, j)
		}
	}
	return s
}

func (f *OneForm) checkPatch(p Patch) {
	if p.I0 < 0 || p.J0 < 0 || p.I1 > f.rows-1 || p.J1 > f.cols-1 || p.I0 >= p.I1 || p.J0 >= p.J1 {
		panic(fmt.Sprintf("manifold: invalid patch %+v for %dx%d nodes", p, f.rows, f.cols))
	}
}

// SplitPatches tiles the full cell grid into roughly pi x pj patches —
// the independent work units of §IV-B's frame-local parallelization.
func (f *OneForm) SplitPatches(pi, pj int) []Patch {
	cellRows, cellCols := f.rows-1, f.cols-1
	if pi < 1 {
		pi = 1
	}
	if pj < 1 {
		pj = 1
	}
	if pi > cellRows {
		pi = cellRows
	}
	if pj > cellCols {
		pj = cellCols
	}
	var out []Patch
	for bi := 0; bi < pi; bi++ {
		i0 := bi * cellRows / pi
		i1 := (bi + 1) * cellRows / pi
		for bj := 0; bj < pj; bj++ {
			j0 := bj * cellCols / pj
			j1 := (bj + 1) * cellCols / pj
			out = append(out, Patch{I0: i0, I1: i1, J0: j0, J1: j1})
		}
	}
	return out
}

// ParallelCurlIntegral computes the whole-grid curl integral by integrating
// patches concurrently and summing — exercising the theorem that local
// (frame-wise) computation composes to the global integral. It returns the
// total and the per-patch partial sums.
func (f *OneForm) ParallelCurlIntegral(patches []Patch, workers int) (float64, []float64) {
	partial := make([]float64, len(patches))
	src := sched.NewChunker(len(patches), workers, sched.Dynamic, 1)
	sched.Run("", workers, src, sched.Each(func(_, idx int) {
		partial[idx] = f.CurlIntegral(patches[idx])
	}))
	var total float64
	for _, p := range partial {
		total += p
	}
	return total, partial
}

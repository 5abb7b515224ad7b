// Package sparse provides compressed sparse row matrices and an iterative
// conjugate gradient solver. The MEA forward model builds wire-conductance
// Laplacians here; for large arrays an iterative solve beats the dense LU by
// a wide margin because each wire touches only n resistors.
package sparse

import (
	"fmt"
	"sort"

	"parma/internal/mat"
)

// Coord is one (row, col, value) triplet of a matrix under construction.
type Coord struct {
	Row, Col int
	Val      float64
}

// Builder accumulates coordinate-format entries; duplicates are summed when
// the builder is compiled to CSR, which makes assembling Laplacians by
// scattering conductance stamps natural.
type Builder struct {
	rows, cols int
	entries    []Coord
}

// NewBuilder returns a builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	return &Builder{rows: rows, cols: cols}
}

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("sparse: entry (%d,%d) out of range for %dx%d matrix", i, j, b.rows, b.cols))
	}
	b.entries = append(b.entries, Coord{i, j, v})
}

// Build compiles the accumulated entries to CSR, summing duplicates and
// dropping exact zeros that result from cancellation. Duplicate (i, j)
// entries are summed in insertion order: the sort is stable, so the
// floating-point sum — which is order-dependent — is a pure function of the
// Add sequence, not of the sorting algorithm's tie-breaking. (An unstable
// sort here made Build's values depend on how sort.Slice happened to
// shuffle equal keys; TestBuilderCoalescesDuplicatesInOrder pins the fix.)
func (b *Builder) Build() *CSR {
	sort.SliceStable(b.entries, func(x, y int) bool {
		if b.entries[x].Row != b.entries[y].Row {
			return b.entries[x].Row < b.entries[y].Row
		}
		return b.entries[x].Col < b.entries[y].Col
	})
	m := &CSR{rows: b.rows, cols: b.cols, rowPtr: make([]int, b.rows+1)}
	for k := 0; k < len(b.entries); {
		e := b.entries[k]
		sum := 0.0
		for k < len(b.entries) && b.entries[k].Row == e.Row && b.entries[k].Col == e.Col {
			sum += b.entries[k].Val
			k++
		}
		if sum != 0 {
			m.colIdx = append(m.colIdx, e.Col)
			m.vals = append(m.vals, sum)
			m.rowPtr[e.Row+1]++
		}
	}
	for i := 0; i < b.rows; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// CSR is a compressed sparse row matrix.
type CSR struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	vals       []float64
}

// Rows returns the number of rows.
func (m *CSR) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *CSR) Cols() int { return m.cols }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.vals) }

// At returns the entry at (i, j); absent entries are 0.
func (m *CSR) At(i, j int) float64 {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range for %dx%d matrix", i, j, m.rows, m.cols))
	}
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	idx := sort.SearchInts(m.colIdx[lo:hi], j)
	if idx < hi-lo && m.colIdx[lo+idx] == j {
		return m.vals[lo+idx]
	}
	return 0
}

// MulVec computes y = M·x into a new vector.
func (m *CSR) MulVec(x mat.Vector) mat.Vector {
	y := mat.NewVector(m.rows)
	m.MulVecTo(y, x)
	return y
}

// MulVecTo computes y = M·x into the provided y, avoiding allocation. Rows
// fan out across the shared kernel pool (mat.ParallelFor) when the matrix
// is big enough to amortize the handout; each output row is accumulated in
// index order by exactly one worker, so the result is bit-identical at any
// parallelism. Small matrices (one chunk) degrade to a plain serial loop.
func (m *CSR) MulVecTo(y, x mat.Vector) {
	if len(x) != m.cols || len(y) != m.rows {
		panic(fmt.Sprintf("sparse: MulVec shapes y[%d] = M(%dx%d)·x[%d]", len(y), m.rows, m.cols, len(x)))
	}
	flops := 2 * len(m.vals) / max(1, m.rows) // an average row
	if mat.Chunks(m.rows, flops) <= 1 {
		// One chunk: skip the pool (and the escaping closure) entirely so
		// allocation-free CG loops stay allocation-free.
		m.mulRows(y, x, 0, m.rows)
		return
	}
	mat.ParallelFor(m.rows, flops, func(lo, hi int) { m.mulRows(y, x, lo, hi) })
}

// mulRows is the serial SpMV kernel over a row range.
func (m *CSR) mulRows(y, x mat.Vector, lo, hi int) {
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.vals[k] * x[m.colIdx[k]]
		}
		y[i] = s
	}
}

// Diagonal returns the matrix diagonal as a vector (square matrices only).
func (m *CSR) Diagonal() mat.Vector {
	d := mat.NewVector(m.rows)
	m.DiagonalTo(d)
	return d
}

// DiagonalTo writes the matrix diagonal into dst, avoiding allocation
// (square matrices only).
func (m *CSR) DiagonalTo(dst mat.Vector) {
	if m.rows != m.cols {
		panic("sparse: Diagonal requires a square matrix")
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("sparse: DiagonalTo dst length %d, want %d", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = m.At(i, i)
	}
}

// Dense converts to a dense matrix (for tests and small problems).
func (m *CSR) Dense() *mat.Matrix {
	d := mat.NewMatrix(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			d.Set(i, m.colIdx[k], m.vals[k])
		}
	}
	return d
}

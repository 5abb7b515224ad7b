package sparse

// Symbolic-pattern support: a CSR whose index structure is a function of
// the geometry alone, while its values slice is refreshed in place.
// FromPattern builds such a matrix; Values and RowVals are the refresh's view
// of it. No production code calls this file: the solver's sparse
// Gauss-Newton step stores its cross pattern as dense blocks with no index
// arrays (internal/solver/cross.go). FromPattern and RowVals are the oracle
// those blocks are tested against (solver's TestCrossBlocksMatchCSR), and
// TransposePlan, Gather and NormalInto are what the benchmark's probes still
// link.

import (
	"fmt"

	"parma/internal/mat"
)

// FromPattern returns a CSR with the given symbolic structure and all-zero
// values. rowPtr and colIdx are adopted, not copied: callers may share one
// immutable index structure across many matrices and must not mutate the
// slices afterwards. Column indices must be
// sorted and unique within each row — the invariant At's binary search and
// the merge kernels rely on.
func FromPattern(rows, cols int, rowPtr, colIdx []int) *CSR {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("sparse: invalid dimensions %dx%d", rows, cols))
	}
	if len(rowPtr) != rows+1 || rowPtr[0] != 0 || rowPtr[rows] != len(colIdx) {
		panic(fmt.Sprintf("sparse: FromPattern rowPtr len %d (want %d), span [%d,%d] over %d indices",
			len(rowPtr), rows+1, rowPtr[0], rowPtr[rows], len(colIdx)))
	}
	for i := 0; i < rows; i++ {
		lo, hi := rowPtr[i], rowPtr[i+1]
		if lo > hi {
			panic(fmt.Sprintf("sparse: FromPattern rowPtr not monotone at row %d", i))
		}
		for k := lo; k < hi; k++ {
			if c := colIdx[k]; c < 0 || c >= cols {
				panic(fmt.Sprintf("sparse: FromPattern column %d out of range at row %d", c, i))
			}
			if k > lo && colIdx[k] <= colIdx[k-1] {
				panic(fmt.Sprintf("sparse: FromPattern columns not sorted/unique in row %d", i))
			}
		}
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx,
		vals: make([]float64, len(colIdx))}
}

// Values exposes the backing values slice in rowPtr order. It exists for
// numeric refresh of pattern matrices: the owner overwrites values in place
// each iteration while the symbolic structure stays fixed. Mutating it on a
// matrix shared with concurrent readers is the caller's race to avoid.
func (m *CSR) Values() []float64 { return m.vals }

// RowVals returns row i's column indices and values as shared sub-slices:
// the zero-copy row view the assembly and merge kernels iterate.
func (m *CSR) RowVals(i int) (cols []int, vals []float64) {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	return m.colIdx[lo:hi], m.vals[lo:hi]
}

// TransposePlan returns mᵀ together with a gather permutation perm
// (len == NNZ) such that after m's values change, the transpose is
// refreshed numerically — no symbolic work — by
//
//	Gather(t.Values(), m.Values(), perm)
//
// The counting transpose emits each output row's entries in input-row
// order, so the result has sorted column indices. The returned matrix
// shares no storage with m.
//
// No production caller: kept for the sparse.gather_ms, sparse.normal_ms and
// sparse.cg_probe_iters probes in benchmark/probes.go, to be deleted together
// with them in the next benchmark PR.
func (m *CSR) TransposePlan() (t *CSR, perm []int) {
	t = &CSR{rows: m.cols, cols: m.rows,
		rowPtr: make([]int, m.cols+1),
		colIdx: make([]int, len(m.vals)),
		vals:   make([]float64, len(m.vals))}
	for _, c := range m.colIdx {
		t.rowPtr[c+1]++
	}
	for i := 0; i < m.cols; i++ {
		t.rowPtr[i+1] += t.rowPtr[i]
	}
	perm = make([]int, len(m.vals))
	next := make([]int, m.cols)
	copy(next, t.rowPtr[:m.cols])
	for i := 0; i < m.rows; i++ {
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			c := m.colIdx[k]
			pos := next[c]
			next[c]++
			t.colIdx[pos] = i
			t.vals[pos] = m.vals[k]
			perm[pos] = k
		}
	}
	return t, perm
}

// Gather refreshes dst[k] = src[perm[k]] — the numeric half of
// TransposePlan. It fans out across the shared kernel pool; every write
// targets a distinct index, so the result is identical at any parallelism.
//
// No production caller: kept for the sparse.gather_ms probe in
// benchmark/probes.go, to be deleted together with it in the next benchmark
// PR.
func Gather(dst, src []float64, perm []int) {
	if len(dst) != len(perm) {
		panic(fmt.Sprintf("sparse: Gather dst length %d, perm length %d", len(dst), len(perm)))
	}
	mat.ParallelFor(len(perm), 1, func(lo, hi int) { // a copied entry counts as one flop
		for k := lo; k < hi; k++ {
			dst[k] = src[perm[k]]
		}
	})
}

// NormalInto refreshes the numeric values of dst = JᵀJ restricted to dst's
// symbolic pattern, given jt = Jᵀ in CSR form: slot (i, j) receives
// ⟨jt.row(i), jt.row(j)⟩, a sparse dot over sorted index merges. Slots
// outside the true product's support come out zero; entries of the true
// product outside dst's pattern are deliberately dropped — dst is the
// preconditioner-grade approximation of the normal matrix, not the exact
// product. Output rows fan out across the shared kernel pool; each row is
// owned by one worker and every dot accumulates in merge order, so values
// are bit-identical at any parallelism.
//
// No production caller: kept for the sparse.normal_ms and
// sparse.cg_probe_iters probes in benchmark/probes.go, to be deleted together
// with them in the next benchmark PR.
func NormalInto(dst, jt *CSR) {
	if dst.rows != jt.rows || dst.cols != jt.rows {
		panic(fmt.Sprintf("sparse: NormalInto dst is %dx%d, want %dx%d", dst.rows, dst.cols, jt.rows, jt.rows))
	}
	flopsPerRow := 1
	if jt.rows > 0 {
		avg := len(jt.vals) / jt.rows
		flopsPerRow = 2 * avg * (dst.NNZ()/dst.rows + 1)
	}
	mat.ParallelFor(dst.rows, flopsPerRow, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ci, vi := dst.colIdx[dst.rowPtr[i]:dst.rowPtr[i+1]], dst.vals[dst.rowPtr[i]:dst.rowPtr[i+1]]
			ai, xi := jt.RowVals(i)
			for s, j := range ci {
				aj, xj := jt.RowVals(j)
				vi[s] = sparseDot(ai, xi, aj, xj)
			}
		}
	})
}

// sparseDot computes the dot product of two sparse rows given as sorted
// (index, value) pairs, by index merge.
func sparseDot(ia []int, va []float64, ib []int, vb []float64) float64 {
	var s float64
	for p, q := 0, 0; p < len(ia) && q < len(ib); {
		switch {
		case ia[p] < ib[q]:
			p++
		case ia[p] > ib[q]:
			q++
		default:
			s += va[p] * vb[q]
			p++
			q++
		}
	}
	return s
}

package mat

// Parallel, allocation-aware dense kernels for the recovery hot path. The
// serial methods in matrix.go stay as the reference implementations; these
// variants fan out across the package worker pool (pool.go) and exploit
// structure — ATA computes J^T·J in one pass over J's rows using symmetry,
// half the flops of Transpose()+Mul() and no transposed copy. Each kernel
// records an obs span and charges the mat/flops counter so kernel time and
// arithmetic throughput are visible in traces.

import (
	"fmt"

	"parma/internal/obs"
)

// MulVecTo computes dst = m·x into the provided dst, avoiding allocation.
// dst must not alias x.
func (m *Matrix) MulVecTo(dst Vector, x Vector) {
	if len(x) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo shapes dst[%d] = M(%dx%d)·x[%d]", len(dst), m.rows, m.cols, len(x)))
	}
	for i := 0; i < m.rows; i++ {
		dst[i] = Vector(m.Row(i)).Dot(x)
	}
}

// MulTVec returns mᵀ·x without forming the transpose.
func (m *Matrix) MulTVec(x Vector) Vector {
	out := NewVector(m.cols)
	m.MulTVecTo(out, x)
	return out
}

// MulTVecTo computes dst = mᵀ·x into the provided dst without forming the
// transpose: one pass over m's rows, accumulating x[i]·row(i). dst must not
// alias x.
func (m *Matrix) MulTVecTo(dst Vector, x Vector) {
	if len(x) != m.rows || len(dst) != m.cols {
		panic(fmt.Sprintf("mat: MulTVecTo shapes dst[%d] = Mᵀ(%dx%d)·x[%d]", len(dst), m.rows, m.cols, len(x)))
	}
	dst.Fill(0)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 { // sparsity skip: exact zeros contribute nothing
			continue
		}
		row := m.Row(i)
		for j, v := range row {
			dst[j] += xi * v
		}
	}
}

// MulPar returns m·b, fanning output-row blocks across the package worker
// pool. Results are bit-identical to Mul: each output row is accumulated in
// the same order by exactly one worker.
func (m *Matrix) MulPar(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("mat: dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	sp := obs.StartSpan("mat/mulpar")
	out := NewMatrix(m.rows, b.cols)
	ParallelFor(m.rows, 2*m.cols*b.cols, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mi := m.Row(i)
			oi := out.Row(i)
			for k, a := range mi {
				if a == 0 { // sparsity skip: exact zeros contribute nothing to the product
					continue
				}
				bk := b.Row(k)
				for j, bv := range bk {
					oi[j] += a * bv
				}
			}
		}
	})
	if sp.Active() {
		sp.End(obs.I("rows", m.rows), obs.I("inner", m.cols), obs.I("cols", b.cols))
	}
	obs.Add("mat/flops", int64(2*m.rows*m.cols*b.cols))
	return out
}

// ATA returns mᵀ·m computed in one pass over m's rows, exploiting symmetry:
// only the upper triangle is accumulated (half the flops of
// Transpose()+Mul()) and mirrored afterwards, with no transposed copy.
// Output rows are fanned across the package worker pool; each is owned by
// one worker and accumulated in row order, so the result is deterministic
// at any parallelism.
func (m *Matrix) ATA() *Matrix {
	return m.ATAInto(nil)
}

// ATAInto is ATA writing into dst (which must be cols x cols, and may hold
// garbage — it is overwritten). A nil dst allocates. It returns dst.
func (m *Matrix) ATAInto(dst *Matrix) *Matrix {
	n := m.cols
	if dst == nil {
		dst = NewMatrix(n, n)
	} else if dst.rows != n || dst.cols != n {
		panic(fmt.Sprintf("mat: ATAInto dst is %dx%d, want %dx%d", dst.rows, dst.cols, n, n))
	}
	sp := obs.StartSpan("mat/ata")
	// Row j of the output needs only entries k >= j, 2·rows·(n−j) flops,
	// rows·n on average; the triangular row lengths make per-chunk work
	// uneven, which the pool's chunk stealing absorbs. Inner loops scan m's
	// rows contiguously from offset j.
	ParallelFor(n, m.rows*n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			cj := dst.Row(j)[j:]
			for i := range cj {
				cj[i] = 0
			}
			// Accumulate four of m's rows per pass: cj[k] is then loaded and
			// stored once per four multiply-adds, which is worth ~1.5× in
			// this bandwidth-bound kernel. The order is fixed (independent
			// of pool width), keeping results deterministic.
			i := 0
			for ; i+3 < m.rows; i += 4 {
				r0 := m.Row(i)[j:]
				r1 := m.Row(i + 1)[j:]
				r2 := m.Row(i + 2)[j:]
				r3 := m.Row(i + 3)[j:]
				a0, a1, a2, a3 := r0[0], r1[0], r2[0], r3[0]
				for k, v := range r0 {
					cj[k] += a0*v + a1*r1[k] + a2*r2[k] + a3*r3[k]
				}
			}
			for ; i < m.rows; i++ {
				ri := m.Row(i)[j:]
				aij := ri[0]
				if aij == 0 { // sparsity skip: a zero row entry adds nothing to this output row
					continue
				}
				for k, v := range ri {
					cj[k] += aij * v
				}
			}
		}
	})
	// Mirror the strict upper triangle; runs only after every row above is
	// final because ParallelFor is a completion barrier.
	ParallelFor(n, n, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			for k := j + 1; k < n; k++ {
				dst.data[k*n+j] = dst.data[j*n+k]
			}
		}
	})
	if sp.Active() {
		sp.End(obs.I("rows", m.rows), obs.I("cols", n))
	}
	obs.Add("mat/flops", int64(m.rows)*int64(n)*int64(n+1))
	return dst
}

// CopyFrom overwrites m with src's contents. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.rows != src.rows || m.cols != src.cols {
		panic(fmt.Sprintf("mat: CopyFrom shape mismatch %dx%d vs %dx%d", m.rows, m.cols, src.rows, src.cols))
	}
	copy(m.data, src.data)
}

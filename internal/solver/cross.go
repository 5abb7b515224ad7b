package solver

// The storage of S, the symmetric matrix the sparse Gauss-Newton step runs
// on (recover_sparse.go). Row (p,q) of S holds two groups of entries: the n
// drops across the resistors of grid row p, S[(p,q),(p,l)], contiguous in
// x; and the m−1 drops across the other resistors of grid column q,
// S[(p,q),(k,q)], at stride n. So
//
//	S = blockdiag_p(A_p) + Π·blockdiag_q(B_q)·Πᵀ
//
// with A_p[q,l] = S[(p,q),(p,l)] (m blocks of n×n), B_q[p,k] = S[(p,q),(k,q)]
// (n blocks of m×m, zero diagonal, since (p,q) itself is counted in A_p) and
// Π the row-major ↔ column-major shuffle. Both families are symmetric. Each
// block is stored whole and contiguous, A_p at p·n² with row q at (p·n+q)·n
// and B_q at q·m² with row p at (q·m+p)·m, so a task that works on one block
// reads it front to back as one stream.
//
// One product S·x is m + n block tasks, which the shared pool hands out by its
// dynamic counter: task p writes the A half of grid row p's outputs,
// y[p·n+q] = A_p[q,:]·x[p,:], and task m+q gathers column q of x into xᵀ[q,:]
// and writes the B half of grid column q's, yb[q·m+p] = B_q[p,:]·xᵀ[q,:].
// After the join one pass in a fixed order adds y[pq] += yb[q·m+p]. The
// gather runs inside the tasks so that nothing but that pass sits between
// two products' fan-outs on the caller. Every output is the same two
// contiguous dot products and the same one addition whichever worker runs
// which task, so S·x is bit-identical at any mat.Parallelism, and one path
// serves one worker and many. There is no column index, row pointer or
// gather. The per-iteration refresh is the same m + n tasks, each filling its
// own block. The pattern is pure geometry, so the blocks are all the symbolic
// structure there is — the CSR form on NewPlan's pattern stores the same
// values plus an 8-byte index per value, and TestCrossBlocksMatchCSR holds the
// two to the same bits.

import (
	"parma/internal/circuit"
	"parma/internal/mat"
)

// stepMatrix is S in the storage one recovery uses: the cross blocks in
// production, the whole u×u matrix in exact mode.
type stepMatrix interface {
	// refresh fills S from fwd's inverse and writes its diagonal,
	// S[pq,pq], into diag. It is deterministic at any mat.Parallelism.
	refresh(fwd *circuit.Solver, diag mat.Vector)
	// mulVec computes y = S·x. y never aliases x. Every output is summed in
	// a fixed order, so the result is bit-identical at any mat.Parallelism.
	mulVec(y, x mat.Vector)
	// nnz is the number of entries S has structurally.
	nnz() int
}

// dropSq is S[pq,kl]: the squared drop pair (p,q)'s unit current puts across
// resistor (k,l), read from gu = G's row p and gv = G's row m+q at k and
// at l = m+l'. It is summed so that swapping the pair and the resistor only
// commutes the two additions: with G bitwise symmetric
// (TestGreenSymmetricAndGrounded), S[pq,kl] and S[kl,pq] are the same bits.
func dropSq(gu, gv []float64, k, l int) float64 { return squaredDrop(gu[k], gv[l], gv[k], gu[l]) }

// squaredDrop is dropSq on the four potentials it reads, for loops that
// hold two of them fixed.
func squaredDrop(uk, vl, vk, ul float64) float64 {
	drop := (uk + vl) - (vk + ul)
	return drop * drop
}

// crossBlocks holds S on the cross as its A and B blocks.
type crossBlocks struct {
	m, n int
	a    []float64  // a[pq·n+l] = A_p[q,l]: A_p whole at p·n², row q at pq·n
	b    []float64  // b[(q·m+p)·m+k] = B_q[p,k]: B_q whole at q·m², row p at (q·m+p)·m
	xt   mat.Vector // xᵀ scratch of mulVec: xt[q·m+k] = x[k·n+q]
	yb   mat.Vector // the B half of mulVec: yb[q·m+p] = B_q[p,:]·xᵀ[q,:]
}

func newCrossBlocks(m, n int) *crossBlocks {
	return &crossBlocks{m: m, n: n,
		a: make([]float64, m*n*n), b: make([]float64, n*m*m),
		xt: mat.NewVector(m * n), yb: mat.NewVector(m * n)}
}

// taskFlops is what one block task costs the pool: 2n² flops for an A block
// and 2m² for a B block, 2mn on average. A 32×32 product is then one chunk,
// a 64×64 one eight and a 100×100 one 34.
func (c *crossBlocks) taskFlops() int { return 2 * c.m * c.n }

func (c *crossBlocks) nnz() int { return c.m * c.n * (c.m + c.n - 1) }

// aRow and bRow return A_p[q,:] and B_q[p,:] for pq = p·n+q.
func (c *crossBlocks) aRow(pq int) []float64 { return c.a[pq*c.n : (pq+1)*c.n] }
func (c *crossBlocks) bRow(p, q int) []float64 {
	o := (q*c.m + p) * c.m
	return c.b[o : o+c.m]
}

// refresh runs the m + n block tasks of mulVec's split, each filling its
// own block: task p fills A_p and the diagonal entries of grid row p, task
// m+q fills B_q. Every value is the same dropSq of the same two rows of G
// whoever computes it.
func (c *crossBlocks) refresh(fwd *circuit.Solver, diag mat.Vector) {
	mat.ParallelFor(c.m+c.n, c.taskFlops(), func(lo, hi int) { c.fillBlocks(fwd, diag, lo, hi) })
}

// fillBlocks fills the blocks of tasks [lo, hi).
func (c *crossBlocks) fillBlocks(fwd *circuit.Solver, diag mat.Vector, lo, hi int) {
	m, n := c.m, c.n
	for t := lo; t < hi; t++ {
		if t < m {
			p := t
			gu := fwd.Green(p)
			up, um := gu[p], gu[m:m+n]
			for q := 0; q < n; q++ {
				gv, ar := fwd.Green(m+q), c.aRow(p*n+q)
				vp, vm := gv[p], gv[m:m+n]
				for l := range ar {
					ar[l] = squaredDrop(up, vm[l], vp, um[l]) // dropSq(gu, gv, p, m+l)
				}
				diag[p*n+q] = ar[q]
			}
			continue
		}
		q := t - m
		gv := fwd.Green(m + q)
		vq := gv[m+q]
		for p := 0; p < m; p++ {
			gu, br := fwd.Green(p), c.bRow(p, q)
			uq, uh, vh := gu[m+q], gu[:m], gv[:m]
			for k := range br {
				br[k] = squaredDrop(uh[k], vq, vh[k], uq) // dropSq(gu, gv, k, m+q)
			}
			br[p] = 0 // B's diagonal: S[(p,q),(p,q)] is A_p[q,q]
		}
	}
}

func (c *crossBlocks) mulVec(y, x mat.Vector) {
	m, n := c.m, c.n
	if mat.Chunks(m+n, c.taskFlops()) <= 1 {
		// One chunk: skip the pool (and the escaping closure) entirely so
		// small recoveries' CG loops stay allocation-free.
		c.mulBlocks(y, x, 0, m+n)
	} else {
		mat.ParallelFor(m+n, c.taskFlops(), func(lo, hi int) { c.mulBlocks(y, x, lo, hi) })
	}
	for p := 0; p < m; p++ {
		for q := range y[p*n : (p+1)*n] {
			y[p*n+q] += c.yb[q*m+p]
		}
	}
}

// mulBlocks runs the product's tasks [lo, hi): task p writes
// y[p,q] = A_p[q,:]·x[p,:] for every q, task m+q fills xᵀ[q,:] and writes
// yb[q,p] = B_q[p,:]·xᵀ[q,:] for every p.
func (c *crossBlocks) mulBlocks(y, x mat.Vector, lo, hi int) {
	m, n := c.m, c.n
	for t := lo; t < hi; t++ {
		if t < m {
			p := t
			xp, yp := x[p*n:(p+1)*n], y[p*n:(p+1)*n]
			for q := range yp {
				yp[q] = dot(c.aRow(p*n+q), xp)
			}
			continue
		}
		q := t - m
		xq, yq := c.xt[q*m:(q+1)*m], c.yb[q*m:(q+1)*m]
		for k := range xq {
			xq[k] = x[k*n+q]
		}
		for p := range yq {
			yq[p] = dot(c.bRow(p, q), xq)
		}
	}
}

// dot is the blocks' inner product: four independent accumulators, so the
// adds pipeline instead of waiting on each other, combined in a fixed order.
// The four-wide sub-slices leave one bounds check per step; at 32×32 this
// form ran S·x in 34 µs where re-slicing a and b every step took 48 (one
// core of a 2-vCPU Xeon VM, go1.24.0).
func dot(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	b = b[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4:i+4], b[i:i+4:i+4]
		s0 += aa[0] * bb[0]
		s1 += aa[1] * bb[1]
		s2 += aa[2] * bb[2]
		s3 += aa[3] * bb[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// fullS holds all of S as one dense u×u matrix: the exact-mode oracle
// (RecoverOptions.exact), which makes the sparse step the dense square step
// solved iteratively. It is quadratic in the unknowns, so only the golden test
// asks for it.
type fullS struct {
	m, n int
	s    *mat.Matrix
}

func newFullS(m, n int) fullS { return fullS{m: m, n: n, s: mat.NewMatrix(m*n, m*n)} }

func (f fullS) nnz() int { return f.s.Rows() * f.s.Cols() }

func (f fullS) refresh(fwd *circuit.Solver, diag mat.Vector) {
	// A row is u squared drops, four flops each.
	mat.ParallelFor(f.s.Rows(), 4*f.s.Cols(), func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			gu, gv := fwd.Green(pq/f.n), fwd.Green(f.m+pq%f.n)
			row := f.s.Row(pq)
			for kl := range row {
				row[kl] = dropSq(gu, gv, kl/f.n, f.m+kl%f.n)
			}
			diag[pq] = row[pq]
		}
	})
}

func (f fullS) mulVec(y, x mat.Vector) { f.s.MulVecTo(y, x) }

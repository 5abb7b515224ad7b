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
// Π the row-major ↔ column-major shuffle. Both families are symmetric. One
// product S·x is one O(u) transpose of x plus, per output, two contiguous
// dot products: no column index, row pointer or gather. Both families are
// stored in S's row order, A_p[q,:] at pq·n and B_q[p,:] at pq·m, so a
// product reads each of them front to back as one stream. The pattern is
// pure geometry, so the blocks are all the symbolic structure there is —
// the CSR form on NewPlan's pattern stores the same values plus an 8-byte
// index per value, and TestCrossBlocksMatchCSR holds the two to the same
// bits.

import (
	"parma/internal/circuit"
	"parma/internal/mat"
)

// stepMatrix is S in the storage one recovery uses: the cross blocks in
// production, the whole u×u matrix in exact mode.
type stepMatrix interface {
	// fillRow refreshes row pq of S from fwd's inverse and returns its
	// diagonal entry S[pq,pq]. Rows are independent: workers may fill
	// disjoint rows concurrently.
	fillRow(fwd *circuit.Solver, pq int) float64
	// mulVec computes y = S·x. y never aliases x. Every output is summed by
	// one worker in a fixed order, so the result is bit-identical at any
	// mat.Parallelism.
	mulVec(y, x mat.Vector)
	// nnz is the number of entries S has structurally.
	nnz() int
}

// dropSq is S[pq,kl]: the squared drop pair (p,q)'s unit current puts across
// resistor (k,l), read from gu = G's row p and gv = G's row m+q at k and
// at l = m+l'. It is summed so that swapping the pair and the resistor only
// commutes the two additions: with G bitwise symmetric
// (TestGreenSymmetricAndGrounded), S[pq,kl] and S[kl,pq] are the same bits.
func dropSq(gu, gv []float64, k, l int) float64 {
	drop := (gu[k] + gv[l]) - (gv[k] + gu[l])
	return drop * drop
}

// crossGrainFlops is the arithmetic one pool chunk of a cross product
// carries: all of a 64×64 product, a quarter of a 100×100 one, roughly
// 250 µs of one core's work. Each product is a fork-join, and on a shared
// VM a helper whose vCPU the host has just descheduled holds the join until
// it runs again, so a chunk has to carry more work than that wait costs. On
// a 2-vCPU Xeon VM (go1.24.0) while the host stole up to 23 % of a run,
// eight chunks per 64×64 product (131072 flops each) gave 1.54–2.19
// recover-64 recoveries/s over eight runs, interquartile range 21 % of the
// median; one chunk gave 1.40–1.60, 7 %, on 10 % less CPU per recovery.
// It is a variable only so that TestRecoverInvariantUnderParallelism can
// split a product small enough to recover in a test.
var crossGrainFlops = 1 << 20

// crossGrain is the number of row blocks p one chunk of an m×n cross product
// covers: each block is n outputs of m+n multiply-adds.
func crossGrain(m, n int) int {
	return max(1, crossGrainFlops/(2*n*(m+n)))
}

// crossBlocks holds S on the cross as its A and B blocks.
type crossBlocks struct {
	m, n  int
	a     []float64  // a[pq·n+l] = A_p[q,l]: S's row pq on grid row p
	b     []float64  // b[pq·m+k] = B_q[p,k]: S's row pq on grid column q
	xt    mat.Vector // xᵀ scratch of mulVec: xt[q·m+k] = x[k·n+q]
	grain int        // row blocks per pool chunk
}

func newCrossBlocks(m, n int) *crossBlocks {
	return &crossBlocks{m: m, n: n,
		a: make([]float64, m*n*n), b: make([]float64, n*m*m),
		xt: mat.NewVector(m * n), grain: crossGrain(m, n)}
}

func (c *crossBlocks) nnz() int { return c.m * c.n * (c.m + c.n - 1) }

// aRow and bRow return A_p[q,:] and B_q[p,:] for pq = p·n+q.
func (c *crossBlocks) aRow(pq int) []float64 { return c.a[pq*c.n : (pq+1)*c.n] }
func (c *crossBlocks) bRow(p, q int) []float64 {
	o := (p*c.n + q) * c.m
	return c.b[o : o+c.m]
}

func (c *crossBlocks) fillRow(fwd *circuit.Solver, pq int) float64 {
	m, n := c.m, c.n
	p, q := pq/n, pq%n
	gu, gv := fwd.Green(p), fwd.Green(m+q)
	ar := c.aRow(pq)
	for l := range ar {
		ar[l] = dropSq(gu, gv, p, m+l)
	}
	br := c.bRow(p, q)
	for k := range br {
		if k == p {
			continue // B's diagonal stays zero: S[(p,q),(p,q)] is A_p[q,q]
		}
		br[k] = dropSq(gu, gv, k, m+q)
	}
	return ar[q]
}

func (c *crossBlocks) mulVec(y, x mat.Vector) {
	m, n := c.m, c.n
	for k := 0; k < m; k++ {
		for q, v := range x[k*n : (k+1)*n] {
			c.xt[q*m+k] = v
		}
	}
	if m <= c.grain {
		// One chunk: skip the pool (and the escaping closure) entirely so
		// small recoveries' CG loops stay allocation-free.
		c.mulBlocks(y, x, 0, m)
		return
	}
	mat.ParallelFor(m, c.grain, func(lo, hi int) { c.mulBlocks(y, x, lo, hi) })
}

// mulBlocks computes y[p,q] = A_p[q,:]·x[p,:] + B_q[p,:]·xᵀ[q,:] for the
// row blocks p in [lo, hi).
func (c *crossBlocks) mulBlocks(y, x mat.Vector, lo, hi int) {
	m, n := c.m, c.n
	for p := lo; p < hi; p++ {
		xp := x[p*n : (p+1)*n]
		for q := 0; q < n; q++ {
			y[p*n+q] = dot(c.aRow(p*n+q), xp) + dot(c.bRow(p, q), c.xt[q*m:(q+1)*m])
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

func (f fullS) fillRow(fwd *circuit.Solver, pq int) float64 {
	gu, gv := fwd.Green(pq/f.n), fwd.Green(f.m+pq%f.n)
	row := f.s.Row(pq)
	for kl := range row {
		row[kl] = dropSq(gu, gv, kl/f.n, f.m+kl%f.n)
	}
	return row[pq]
}

func (f fullS) mulVec(y, x mat.Vector) { f.s.MulVecTo(y, x) }

package solver

// The sparse recovery path's symbolic layer. For an m×n array the log-space
// Jacobian row of pair (p, q) is dominated by the resistors that share a
// wire with the pair — the "cross" {(k,l): k==p or l==q}, 2n−1 of the n²
// entries at the paper's square sizes — because the drop across any other
// resistor is a difference of two floating-wire potentials, which decays
// like 1/n² relative to the cross entries (TestSparsityRationale measures
// the off-cross share of the Jacobian's squared mass and pins its decay).
// The cross is pure geometry, so it is the sparse Jacobian's whole pattern:
// nothing about it depends on the field or the iterate. It is structurally
// symmetric, and the values the stepper stores on it are symmetric too
// (recover_sparse.go), so one matrix serves the Jacobian and its transpose.
// Building it is one pass over its m·n·(m+n−1) indices — 0.2 ms at 32×32,
// 1.3 ms at 64×64, under 0.6 % of a recovery — so every recovery builds its
// own.

import "fmt"

// Plan is the symbolic structure of the sparse Gauss-Newton step for one
// geometry: the cross pattern over pairs×unknowns, in CSR index form.
type Plan struct {
	// Row p·n+q holds columns {k·n+q : k ≠ p} ∪ {p·n+l : all l}, sorted.
	rowPtr, colIdx []int
}

// NewPlan computes the symbolic sparse-recovery structure for an m×n array.
func NewPlan(m, n int) *Plan {
	if m < 1 || n < 1 {
		panic(fmt.Sprintf("solver: invalid plan geometry %dx%d", m, n))
	}
	u := m * n
	p := &Plan{rowPtr: make([]int, u+1), colIdx: make([]int, 0, u*(m+n-1))}
	for pq := 0; pq < u; pq++ {
		pr, q := pq/n, pq%n
		for k := 0; k < m; k++ {
			if k == pr {
				for l := 0; l < n; l++ {
					p.colIdx = append(p.colIdx, pr*n+l)
				}
			} else {
				p.colIdx = append(p.colIdx, k*n+q)
			}
		}
		p.rowPtr[pq+1] = len(p.colIdx)
	}
	return p
}

// newFullPlan is the exact-mode oracle's plan: every pair's row holds all
// m·n unknowns, which makes the sparse step the dense step solved
// iteratively. It is quadratic in the unknowns, so only the golden test asks
// for it (RecoverOptions.exact).
func newFullPlan(m, n int) *Plan {
	u := m * n
	p := &Plan{rowPtr: make([]int, u+1), colIdx: make([]int, u*u)}
	for pq := 0; pq < u; pq++ {
		for kl := 0; kl < u; kl++ {
			p.colIdx[pq*u+kl] = kl
		}
		p.rowPtr[pq+1] = (pq + 1) * u
	}
	return p
}

// NNZ returns the structural pattern's entry count, m·n·(m+n−1).
func (p *Plan) NNZ() int { return len(p.colIdx) }

// Method selects the linear-algebra backend of Recover's Gauss-Newton step.
type Method uint8

const (
	// MethodSparse (the zero value, and the only production backend) stores
	// the Jacobian on the cross pattern and solves the damped normal
	// equations matrix-free by Jacobi-preconditioned CG — per-iteration cost
	// scales with nnz = m·n·(m+n−1), not (m·n)³.
	MethodSparse Method = iota
	// MethodDense materializes the Jacobian, forms JᵀJ with the one-pass
	// SYRK kernel, and solves the damped normal equations by Cholesky. It is
	// the reference the exact-mode golden test holds the sparse step to;
	// O(n⁶) per iteration on squares.
	MethodDense
)

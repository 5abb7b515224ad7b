// Package circuit implements the physical forward model of an MEA: nodal
// analysis on the wire-level graph. Given a resistance field R it computes
// the pairwise end-to-end resistances Z_ij and the internal wire potentials
// (the paper's U, Ua, Ub), plus the analytic sensitivities ∂Z/∂R used by the
// recovery solver.
//
// This package is the reproduction's stand-in for the paper's wet-lab
// measurements: a physically correct simulator that produces exactly the
// data Parma consumes, with ground truth available for verification.
package circuit

import (
	"fmt"

	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
)

// conductance returns 1/R_ij, panicking on a non-positive resistance.
func conductance(r *grid.Field, i, j int) float64 {
	res := r.At(i, j)
	if res <= 0 {
		panic(fmt.Sprintf("circuit: non-positive resistance %g at (%d,%d)", res, i, j))
	}
	return 1 / res
}

func checkField(a grid.Array, r *grid.Field) {
	if r.Rows() != a.Rows() || r.Cols() != a.Cols() {
		panic(fmt.Sprintf("circuit: field %dx%d does not match array %dx%d",
			r.Rows(), r.Cols(), a.Rows(), a.Cols()))
	}
}

// Solver computes effective resistances and wire potentials against one
// resistance field. It holds G, the inverse of the grounded Laplacian (node
// 0, the first horizontal wire, is the ground; its row and column of G are
// zero), computed once per field. Row u of G is the potential of every wire
// for a unit current injected at wire u and extracted at the ground, so
// every query is a lookup: Z_ij = G_uu + G_vv − 2·G_uv, and the potentials
// of a pair are the difference of two rows.
//
// A Solver is immutable after NewSolver and safe for concurrent use: every
// query method only reads G. The serving layer's factorization cache
// (internal/serve) hands one *Solver to many workers at once and relies on
// this; TestSolverConcurrentReaders pins the contract under -race.
type Solver struct {
	arr grid.Array
	g   *mat.Matrix // (m+n)² grounded inverse, exactly symmetric
}

// NewSolver prepares a solver for the array with the given resistance field.
//
// With horizontal wires first the Laplacian is [[D_h, −C], [−Cᵀ, D_v]]: C
// holds the m×n conductances, and D_h, D_v — its row and column sums — are
// diagonal, because wires of one orientation never touch. Eliminating the
// ungrounded horizontal wires therefore costs nothing and leaves the n×n
// Schur complement S = D_v − Cᵀ·D_h⁻¹·C, which is positive definite for any
// connected array. One Cholesky of S gives every block of G:
//
//	G_vv = S⁻¹,  G_hv = D_h⁻¹·C·S⁻¹,  G_hh = D_h⁻¹ + G_hv·Cᵀ·D_h⁻¹.
//
// The conductances are read, and a non-positive resistance panics, on the
// calling goroutine before anything fans out. Then the wire rows i of G_hv
// and G_hh fan out over the shared pool (greenRows; up to 32×32 they are one
// plain call). Every entry is accumulated in a fixed order by the one task
// that owns it, so G — and with it every query — is bit-identical at any
// mat.Parallelism.
func NewSolver(a grid.Array, r *grid.Field) (*Solver, error) {
	checkField(a, r)
	m, n := a.Rows(), a.Cols()
	cond := make([]float64, m*n) // C, row-major
	invDh := make([]float64, m)  // D_h⁻¹
	schur := mat.NewMatrix(n, n) // S, lower triangle
	for i := 0; i < m; i++ {
		ci := cond[i*n : (i+1)*n]
		var sum float64
		for j := range ci {
			ci[j] = conductance(r, i, j)
			sum += ci[j]
			schur.Add(j, j, ci[j])
		}
		if i == 0 {
			continue // the ground: its conductances stay on D_v, nothing to eliminate
		}
		invDh[i] = 1 / sum
		for j, c := range ci {
			f := c * invDh[i]
			sj := schur.Row(j)[:j+1]
			for l := range sj {
				sj[l] -= f * ci[l]
			}
		}
	}
	chol, err := mat.CholeskyInPlace(schur)
	if err != nil {
		return nil, fmt.Errorf("circuit: grounded Laplacian is singular (disconnected array?): %w", err)
	}
	sInv := mat.NewMatrix(n, n)
	chol.InverseTo(sInv)

	g := mat.NewMatrix(m+n, m+n)
	for j := 0; j < n; j++ {
		copy(g.Row(m + j)[m:], sInv.Row(j))
	}
	// Wire rows 1..m−1 of G_hv and G_hh, one pool task per row i; the ground
	// row 0 stays zero.
	if flops := greenRowFlops(m, n); mat.Chunks(m-1, flops) <= 1 {
		greenRows(g, sInv, cond, invDh, 1, m)
	} else {
		mat.ParallelFor(m-1, flops, func(lo, hi int) { greenRows(g, sInv, cond, invDh, lo+1, hi+1) })
	}
	return &Solver{arr: a, g: g}, nil
}

// greenRowFlops is what wire row i of an m×n G costs the pool, at most: n²
// multiply-adds for G_hv's row and i·n < m·n for G_hh's. Every square array
// up to 32×32 (the serving layer's sizes) is then one plain call, and a
// 64×64 G eight chunks.
func greenRowFlops(m, n int) int { return 2 * n * (m + n) }

// greenRows fills wire rows i in [lo, hi) of G_hv and G_hh, and their
// mirror images: row i of G_hv and its column i of G_vh, and the entries
// (i,k) and (k,i) of G_hh for 1 ≤ k ≤ i. Those sets are disjoint across i and
// a row reads only its own entries, C, D_h⁻¹ and S⁻¹, so rows may be filled
// concurrently, each entry summed in one fixed order.
func greenRows(g, sInv *mat.Matrix, cond, invDh []float64, lo, hi int) {
	m, n := len(invDh), sInv.Rows()
	for i := lo; i < hi; i++ {
		gi, ci := g.Row(i), cond[i*n:(i+1)*n]
		hv := gi[m:]
		for j, c := range ci {
			for l, s := range sInv.Row(j) {
				hv[l] += c * s
			}
		}
		for l := range hv {
			hv[l] *= invDh[i]
			g.Row(m + l)[i] = hv[l]
		}
		for k := 1; k <= i; k++ {
			var dot float64
			for l, c := range cond[k*n : (k+1)*n] {
				dot += hv[l] * c
			}
			gi[k] = dot * invDh[k]
			g.Row(k)[i] = gi[k]
		}
		gi[i] += invDh[i]
	}
}

// Green returns row u of G: the potential of every wire node (WireVertex
// order) for a unit current injected at node u and extracted at the ground.
// The slice is a read-only view of the solver's state — callers that need
// many pairs (the recovery Jacobian) difference two rows in place instead
// of allocating a Potentials vector per pair.
func (s *Solver) Green(u int) []float64 { return s.g.Row(u) }

// Potentials returns the full node-potential vector x (one entry per wire,
// horizontal wires first) for a unit current injected at horizontal wire i
// and extracted at vertical wire j, with the ground node at 0: the drop
// across resistor (k, l) is x[WireVertex(true,k)] − x[WireVertex(false,l)].
func (s *Solver) Potentials(i, j int) mat.Vector {
	gu, gv := s.pairRows(i, j)
	x := mat.NewVector(len(gu))
	for k := range x {
		x[k] = gu[k] - gv[k]
	}
	return x
}

// pairRows returns the rows of G for horizontal wire i and vertical wire j.
func (s *Solver) pairRows(i, j int) (gu, gv []float64) {
	return s.g.Row(s.arr.WireVertex(true, i)), s.g.Row(s.arr.WireVertex(false, j))
}

// EffectiveResistance returns Z between horizontal wire i and vertical wire
// j: the potential difference produced by a unit current injection.
func (s *Solver) EffectiveResistance(i, j int) float64 {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	gu, gv := s.g.Row(u), s.g.Row(v)
	return gu[u] + gv[v] - 2*gu[v]
}

// PairSolution carries the complete electrical state for one wire pair under
// an applied source voltage: exactly the quantities in the paper's §IV-A
// equations.
type PairSolution struct {
	I, J int     // the wire pair
	U    float64 // applied end-to-end voltage U_ij
	Z    float64 // measured effective resistance Z_ij
	// Ua[k'] is the potential of vertical wire k (k ≠ J), indexed by the
	// paper's k' = k for k < J (0-based) and k' = k−1 for k > J.
	Ua []float64
	// Ub[m'] is the potential of horizontal wire m (m ≠ I), likewise.
	Ub []float64
}

// SolvePair computes the pair solution for (i, j) with source voltage srcU:
// wire i is held at potential srcU and wire j at 0; every other wire floats
// at its Kirchhoff equilibrium, yielding the paper's Ua and Ub unknowns.
func (s *Solver) SolvePair(i, j int, srcU float64) PairSolution {
	gu, gv := s.pairRows(i, j)
	z := s.EffectiveResistance(i, j)
	// Scale and shift the unit-current potentials gu − gv so wire i sits at
	// srcU and wire j at 0.
	scale := srcU / z
	m, n := s.arr.Rows(), s.arr.Cols()
	offset := gu[m+j] - gv[m+j]
	ps := PairSolution{I: i, J: j, U: srcU, Z: z,
		Ua: make([]float64, 0, n-1), Ub: make([]float64, 0, m-1)}
	for k := 0; k < n; k++ {
		if k == j {
			continue
		}
		ps.Ua = append(ps.Ua, (gu[m+k]-gv[m+k]-offset)*scale)
	}
	for mm := 0; mm < m; mm++ {
		if mm == i {
			continue
		}
		ps.Ub = append(ps.Ub, (gu[mm]-gv[mm]-offset)*scale)
	}
	return ps
}

// pairFlops is what one pair lookup costs the pool. A lookup is three loads
// of G and a few flops — nanoseconds — so it counts as 32, which puts 4,096
// lookups in a chunk: sweeps up to 64×64 run inline.
const pairFlops = 32

// MeasureInto writes Z for every pair into z, row-major and m·n long. Each
// pair is an independent lookup in G writing its own entry, so large sweeps
// fan out across the shared kernel pool (mat.Parallelism bounds the width)
// with an identical result at any parallelism.
func (s *Solver) MeasureInto(z []float64) {
	n := s.arr.Cols()
	mat.ParallelFor(len(z), pairFlops, func(lo, hi int) {
		for pq := lo; pq < hi; pq++ {
			z[pq] = s.EffectiveResistance(pq/n, pq%n)
		}
	})
}

// MeasureAll returns the full Z matrix — the synthetic equivalent of the
// wet lab's pairwise measurements.
func MeasureAll(a grid.Array, r *grid.Field) (*grid.Field, error) {
	s, err := NewSolver(a, r)
	if err != nil {
		return nil, err
	}
	sp := obs.StartSpan("circuit/measure_all")
	z := grid.NewFieldFor(a)
	s.MeasureInto(z.Values())
	if sp.Active() {
		sp.End(obs.I("pairs", a.Rows()*a.Cols()))
	}
	return z, nil
}

// Sensitivity returns ∂Z_pq/∂R_kl for every resistor as a field, using the
// adjoint identity: with x = L⁺(e_p − e_q),
//
//	∂Z/∂g_kl = −(x_k − x_l)²  and  g = 1/R  ⇒  ∂Z/∂R_kl = ((x_k − x_l)/R_kl)².
//
// x is the difference of two rows of G, so the gradient with respect to all
// m·n resistors costs no solve — which is what makes Gauss-Newton recovery
// tractable.
func (s *Solver) Sensitivity(p, q int, r *grid.Field) *grid.Field {
	checkField(s.arr, r)
	gu, gv := s.pairRows(p, q)
	m, n := s.arr.Rows(), s.arr.Cols()
	out := grid.NewFieldFor(s.arr)
	ov, rv := out.Values(), r.Values()
	for i := 0; i < m; i++ {
		xi := gu[i] - gv[i]
		for j := 0; j < n; j++ {
			ratio := (xi - (gu[m+j] - gv[m+j])) / rv[i*n+j]
			ov[i*n+j] = ratio * ratio
		}
	}
	return out
}

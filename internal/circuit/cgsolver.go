package circuit

import (
	"fmt"
	"sync"

	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/sparse"
)

// GroundedLaplacian assembles the Laplacian with node 0 grounded (its row
// and column removed), in sparse form. The result is symmetric positive
// definite for connected arrays and suits conjugate gradient solves.
func GroundedLaplacian(a grid.Array, r *grid.Field) *sparse.CSR {
	checkField(a, r)
	n := a.Rows() + a.Cols()
	b := sparse.NewBuilder(n-1, n-1)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			g := conductance(r, i, j)
			u, v := i, a.Rows()+j
			if u != 0 {
				b.Add(u-1, u-1, g)
			}
			if v != 0 {
				b.Add(v-1, v-1, g)
			}
			if u != 0 && v != 0 {
				b.Add(u-1, v-1, -g)
				b.Add(v-1, u-1, -g)
			}
		}
	}
	return b.Build()
}

// CGSolver computes effective resistances iteratively. It trades the dense
// solver's one-time O(N³) factorization for per-pair conjugate gradient
// solves on the sparse grounded Laplacian — the better choice when only a
// few pairs of a large array are needed.
type CGSolver struct {
	arr grid.Array
	lap *sparse.CSR
	n   int
	tol float64
	// ws pools CG workspaces so a sweep over many pairs reuses its work
	// vectors instead of allocating five per solve, while concurrent
	// EffectiveResistance calls each still get a private set.
	ws sync.Pool
}

// NewCGSolver prepares an iterative solver. tol <= 0 selects 1e-12.
func NewCGSolver(a grid.Array, r *grid.Field, tol float64) *CGSolver {
	if tol <= 0 {
		tol = 1e-12
	}
	return &CGSolver{arr: a, lap: GroundedLaplacian(a, r), n: a.Rows() + a.Cols(), tol: tol}
}

// EffectiveResistance returns Z between horizontal wire i and vertical wire
// j, or an error when CG fails to converge.
func (s *CGSolver) EffectiveResistance(i, j int) (float64, error) {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	rhs := mat.NewVector(s.n - 1)
	if u != 0 {
		rhs[u-1] = 1
	}
	if v != 0 {
		rhs[v-1] = -1
	}
	ws, _ := s.ws.Get().(*sparse.Workspace)
	if ws == nil {
		ws = new(sparse.Workspace)
	}
	defer s.ws.Put(ws)
	sol, err := sparse.CGWith(ws, s.lap, rhs, sparse.CGOptions{Tol: s.tol, Precondition: true})
	if err != nil {
		return 0, fmt.Errorf("circuit: CG solve for pair (%d,%d): %w", i, j, err)
	}
	x := func(node int) float64 {
		if node == 0 {
			return 0
		}
		return sol[node-1]
	}
	return x(u) - x(v), nil
}

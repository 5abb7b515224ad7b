package circuit

import (
	"fmt"
	"testing"

	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/sparse"
)

// The sparse path to Z: assemble the wire Laplacian as CSR and solve one
// pair at a time with conjugate gradient. It shares no code with
// NewSolver's dense inverse G, which makes it the forward model's oracle,
// and it is ablation 5's baseline.

// laplacian assembles the conductance Laplacian of the wire-level graph:
// one node per wire (horizontal wires first, then vertical), and for every
// resistor R_ij a conductance g = 1/R_ij between wire i and wire m+j.
// All resistances must be positive and finite.
func laplacian(a grid.Array, r *grid.Field) *sparse.CSR {
	checkField(a, r)
	nNodes := a.Rows() + a.Cols()
	b := sparse.NewBuilder(nNodes, nNodes)
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			g := conductance(r, i, j)
			u, v := i, a.Rows()+j
			b.Add(u, u, g)
			b.Add(v, v, g)
			b.Add(u, v, -g)
			b.Add(v, u, -g)
		}
	}
	return b.Build()
}

// groundedLaplacian assembles the Laplacian with node 0 grounded (its row
// and column removed), in sparse form. The result is symmetric positive
// definite for connected arrays and suits conjugate gradient solves.
func groundedLaplacian(a grid.Array, r *grid.Field) *sparse.CSR {
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

// cgSolver computes effective resistances by a Jacobi-preconditioned CG
// solve on the sparse grounded Laplacian per pair.
type cgSolver struct {
	arr grid.Array
	lap *sparse.CSR
	n   int
	tol float64
}

func newCGSolver(a grid.Array, r *grid.Field, tol float64) *cgSolver {
	return &cgSolver{arr: a, lap: groundedLaplacian(a, r), n: a.Rows() + a.Cols(), tol: tol}
}

// EffectiveResistance returns Z between horizontal wire i and vertical wire
// j, or an error when CG fails to converge.
func (s *cgSolver) EffectiveResistance(i, j int) (float64, error) {
	u := s.arr.WireVertex(true, i)
	v := s.arr.WireVertex(false, j)
	rhs := mat.NewVector(s.n - 1)
	if u != 0 {
		rhs[u-1] = 1
	}
	if v != 0 {
		rhs[v-1] = -1
	}
	sol, err := sparse.CG(s.lap, rhs, sparse.CGOptions{Tol: s.tol, Precondition: true})
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

// Ablation 5: the dense Schur-complement inverse against one sparse CG
// solve, each from a fresh field.
func BenchmarkAblationLaplacian(b *testing.B) {
	const n = 48
	a := grid.NewSquare(n)
	r := grid.UniformField(n, n, 5000)
	r.Set(10, 10, 20000)
	b.Run("dense-inverse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, err := NewSolver(a, r)
			if err != nil {
				b.Fatal(err)
			}
			if s.EffectiveResistance(0, 0) <= 0 {
				b.Fatal("bad Z")
			}
		}
	})
	b.Run("sparse-cg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := newCGSolver(a, r, 1e-10)
			z, err := s.EffectiveResistance(0, 0)
			if err != nil || z <= 0 {
				b.Fatalf("bad Z: %v %v", z, err)
			}
		}
	})
}

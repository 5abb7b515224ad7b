package circuit

import (
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parma/internal/grid"
	"parma/internal/mat"
)

// The forward model answers every query by lookup in G, the inverse of the
// grounded Laplacian. These tests pin it to an oracle that shares none of
// that code: a pivoted-LU solve of the grounded Laplacian per pair.

var forwardSizes = [][2]int{{8, 8}, {5, 17}, {64, 64}}

// oraclePotentials solves L_g·x = e_u − e_v with lu and returns x over all
// nodes, the ground at 0.
func oraclePotentials(lu *mat.LU, nodes, u, v int) mat.Vector {
	rhs := mat.NewVector(nodes - 1)
	if u != 0 {
		rhs[u-1] = 1
	}
	if v != 0 {
		rhs[v-1] = -1
	}
	x := mat.NewVector(nodes)
	copy(x[1:], lu.Solve(rhs))
	return x
}

func TestForwardModelMatchesPerPairSolve(t *testing.T) {
	for _, size := range forwardSizes {
		m, n := size[0], size[1]
		a := grid.New(m, n)
		r := randomField(rand.New(rand.NewSource(int64(41+m))), m, n)
		s, err := NewSolver(a, r)
		if err != nil {
			t.Fatal(err)
		}
		lu, err := mat.Factorize(groundedLaplacian(a, r).Dense())
		if err != nil {
			t.Fatal(err)
		}
		cg := newCGSolver(a, r, 1e-13)
		// Every pair's Z; the per-pair vectors on a stride that still visits
		// every row and column (m·n+1 is coprime to 7 at all three sizes).
		for pq := 0; pq < m*n; pq++ {
			i, j := pq/n, pq%n
			u, v := a.WireVertex(true, i), a.WireVertex(false, j)
			x := oraclePotentials(lu, m+n, u, v)
			wantZ := x[u] - x[v]
			z := s.EffectiveResistance(i, j)
			if math.Abs(z-wantZ) > 1e-12*wantZ {
				t.Fatalf("%dx%d: Z(%d,%d) = %.17g, per-pair solve %.17g", m, n, i, j, z, wantZ)
			}
			if pq%7 != 0 {
				continue
			}
			if zcg, err := cg.EffectiveResistance(i, j); err != nil || math.Abs(z-zcg) > 1e-10*z {
				t.Fatalf("%dx%d: Z(%d,%d) = %.17g, CG %.17g (%v)", m, n, i, j, z, zcg, err)
			}
			// Potentials are fixed up to the ground's offset; drops are what
			// every consumer reads, and Z bounds them all.
			got := s.Potentials(i, j)
			for k := range got {
				if math.Abs(got[k]-x[k]) > 1e-12*wantZ {
					t.Fatalf("%dx%d: Potentials(%d,%d)[%d] = %g, per-pair solve %g", m, n, i, j, k, got[k], x[k])
				}
			}
			sens := s.Sensitivity(i, j, r)
			ps := s.SolvePair(i, j, 5)
			if math.Abs(ps.Z-wantZ) > 1e-12*wantZ {
				t.Fatalf("%dx%d: SolvePair(%d,%d).Z = %g, want %g", m, n, i, j, ps.Z, wantZ)
			}
			for k := 0; k < m; k++ {
				for l := 0; l < n; l++ {
					ratio := (x[k] - x[m+l]) / r.At(k, l)
					if want := ratio * ratio; math.Abs(sens.At(k, l)-want) > 1e-12*(wantZ/r.At(k, l))*(wantZ/r.At(k, l)) {
						t.Fatalf("%dx%d: Sensitivity(%d,%d)[%d,%d] = %g, want %g", m, n, i, j, k, l, sens.At(k, l), want)
					}
				}
			}
			for l, ua := 0, 0; l < n; l++ {
				if l == j {
					continue
				}
				if want := (x[m+l] - x[v]) * 5 / wantZ; math.Abs(ps.Ua[ua]-want) > 5e-12 {
					t.Fatalf("%dx%d: SolvePair(%d,%d).Ua[%d] = %g, want %g", m, n, i, j, ua, ps.Ua[ua], want)
				}
				ua++
			}
			for k, ub := 0, 0; k < m; k++ {
				if k == i {
					continue
				}
				if want := (x[k] - x[v]) * 5 / wantZ; math.Abs(ps.Ub[ub]-want) > 5e-12 {
					t.Fatalf("%dx%d: SolvePair(%d,%d).Ub[%d] = %g, want %g", m, n, i, j, ub, ps.Ub[ub], want)
				}
				ub++
			}
		}
	}
}

// TestGreenSymmetricAndGrounded: G is the inverse of a symmetric matrix
// with the ground's row and column zero. Potentials reads rows where the
// physics says columns, which is sound only if the symmetry is exact.
func TestGreenSymmetricAndGrounded(t *testing.T) {
	for _, size := range forwardSizes {
		m, n := size[0], size[1]
		a := grid.New(m, n)
		s, err := NewSolver(a, randomField(rand.New(rand.NewSource(5)), m, n))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < m+n; u++ {
			gu := s.Green(u)
			if gu[0] != 0 || s.Green(0)[u] != 0 {
				t.Fatalf("%dx%d: ground entry G[%d,0] = %g, G[0,%d] = %g", m, n, u, gu[0], u, s.Green(0)[u])
			}
			for v := 0; v < u; v++ {
				if gu[v] != s.Green(v)[u] {
					t.Fatalf("%dx%d: G[%d,%d] = %.17g but G[%d,%d] = %.17g", m, n, u, v, gu[v], v, u, s.Green(v)[u])
				}
			}
		}
	}
}

// TestEffectiveResistanceAllocatesNothing pins the lookup: the pair sweeps
// under MeasureAll and the recovery residual call it m·n times per field.
func TestEffectiveResistanceAllocatesNothing(t *testing.T) {
	a := grid.New(8, 8)
	s, err := NewSolver(a, testField(a))
	if err != nil {
		t.Fatal(err)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() { sink += s.EffectiveResistance(3, 5) }); n != 0 {
		t.Fatalf("EffectiveResistance allocates %v times per call", n)
	}
	mask := grid.FullMaskFor(a)
	mask.DisableWire(true, 2)
	ms, err := NewMaskedSolver(a, testField(a), mask)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { sink += ms.EffectiveResistance(3, 5) }); n != 0 {
		t.Fatalf("masked EffectiveResistance allocates %v times per call", n)
	}
}

// TestNewSolverReportsSingular: a wire that no finite resistor reaches
// leaves the grounded Laplacian singular, which must surface as an error
// from the Cholesky breakdown, not a panic or a field of NaNs.
func TestNewSolverReportsSingular(t *testing.T) {
	a := grid.New(3, 4)
	deadRow, deadCol := testField(a), testField(a)
	for j := 0; j < a.Cols(); j++ {
		deadRow.Set(1, j, math.Inf(1))
	}
	for i := 0; i < a.Rows(); i++ {
		deadCol.Set(i, 2, math.Inf(1))
	}
	for name, r := range map[string]*grid.Field{"row": deadRow, "column": deadCol} {
		_, err := NewSolver(a, r)
		if !errors.Is(err, mat.ErrNotSPD) || !strings.Contains(err.Error(), "grounded Laplacian is singular") {
			t.Fatalf("dead %s: err = %v, want the singular-Laplacian error", name, err)
		}
	}
}

func BenchmarkNewSolver64(b *testing.B) {
	a := grid.NewSquare(64)
	r := randomField(rand.New(rand.NewSource(1)), 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSolver(a, r); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureAll64(b *testing.B) {
	a := grid.NewSquare(64)
	r := randomField(rand.New(rand.NewSource(1)), 64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureAll(a, r); err != nil {
			b.Fatal(err)
		}
	}
}

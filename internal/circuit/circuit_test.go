package circuit

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parma/internal/grid"
)

func TestLaplacianStructure(t *testing.T) {
	a := grid.New(2, 2)
	r := grid.UniformField(2, 2, 2) // all 2 kΩ → g = 0.5
	lap := laplacian(a, r)
	if lap.Rows() != 4 || lap.Cols() != 4 {
		t.Fatalf("Laplacian is %dx%d, want 4x4", lap.Rows(), lap.Cols())
	}
	// Row sums vanish for a Laplacian.
	for i := 0; i < 4; i++ {
		sum := 0.0
		for j := 0; j < 4; j++ {
			sum += lap.At(i, j)
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	// Each wire touches 2 resistors of conductance 0.5 → diagonal 1.
	for i := 0; i < 4; i++ {
		if math.Abs(lap.At(i, i)-1) > 1e-12 {
			t.Fatalf("diagonal %d = %g, want 1", i, lap.At(i, i))
		}
	}
}

func TestLaplacianRejectsNonPositive(t *testing.T) {
	a := grid.New(1, 1)
	r := grid.UniformField(1, 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("zero resistance accepted")
		}
	}()
	laplacian(a, r)
}

// Test1x1DirectResistor: a single resistor's Z is exactly R.
func Test1x1DirectResistor(t *testing.T) {
	a := grid.New(1, 1)
	r := grid.UniformField(1, 1, 4700)
	z, err := MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(z.At(0, 0)-4700) > 1e-9 {
		t.Fatalf("Z = %g, want 4700", z.At(0, 0))
	}
}

// Test1xNDeadEnds: with a single horizontal wire, side branches through
// other vertical wires dead-end, so every Z_0j is exactly R_0j.
func Test1xNDeadEnds(t *testing.T) {
	a := grid.New(1, 4)
	r := grid.NewField(1, 4)
	for j := 0; j < 4; j++ {
		r.Set(0, j, float64(1000*(j+1)))
	}
	z, err := MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 4; j++ {
		if math.Abs(z.At(0, j)-r.At(0, j)) > 1e-9 {
			t.Fatalf("Z(0,%d) = %g, want %g", j, z.At(0, j), r.At(0, j))
		}
	}
}

// Test2x2SeriesParallel checks the closed form: between H0 and V0 the direct
// resistor R00 is in parallel with the series chain R01 + R11 + R10.
func Test2x2SeriesParallel(t *testing.T) {
	a := grid.New(2, 2)
	r := grid.NewField(2, 2)
	r.Set(0, 0, 1000)
	r.Set(0, 1, 2000)
	r.Set(1, 0, 3000)
	r.Set(1, 1, 4000)
	s, err := NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	direct := 1000.0
	chain := 2000.0 + 4000.0 + 3000.0
	want := 1 / (1/direct + 1/chain)
	if got := s.EffectiveResistance(0, 0); math.Abs(got-want) > 1e-9 {
		t.Fatalf("Z(0,0) = %g, want %g", got, want)
	}
	// And the symmetric corner: R11 parallel (R10+R00+R01).
	want11 := 1 / (1/4000.0 + 1/(3000.0+1000.0+2000.0))
	if got := s.EffectiveResistance(1, 1); math.Abs(got-want11) > 1e-9 {
		t.Fatalf("Z(1,1) = %g, want %g", got, want11)
	}
}

// TestZBelowDirectResistor: extra parallel paths only reduce resistance, so
// Z_ij <= R_ij always, with equality only when no alternate path exists.
func TestZBelowDirectResistor(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(4), 2+rng.Intn(4)
		a := grid.New(m, n)
		r := randomField(rng, m, n)
		z, err := MeasureAll(a, r)
		if err != nil {
			return false
		}
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if z.At(i, j) <= 0 || z.At(i, j) > r.At(i, j)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRayleighMonotonicity: raising any single resistance cannot lower any
// effective resistance.
func TestRayleighMonotonicity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m, n := 3, 3
	a := grid.New(m, n)
	r := randomField(rng, m, n)
	zBefore, err := MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	r2 := r.Clone()
	r2.Set(1, 1, r.At(1, 1)*10)
	zAfter, err := MeasureAll(a, r2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if zAfter.At(i, j) < zBefore.At(i, j)-1e-9 {
				t.Fatalf("Z(%d,%d) decreased from %g to %g after raising R(1,1)",
					i, j, zBefore.At(i, j), zAfter.At(i, j))
			}
		}
	}
}

// TestPairSolutionKirchhoff verifies that SolvePair's potentials satisfy
// Kirchhoff's current law at every floating wire and that the source current
// matches U/Z — these are exactly the paper's four §IV-A equation families.
func TestPairSolutionKirchhoff(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, n := 4, 3
	a := grid.New(m, n)
	r := randomField(rng, m, n)
	s, err := NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	const srcU = 5.0 // the paper's 5 volts
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			ps := s.SolvePair(i, j, srcU)
			if len(ps.Ua) != n-1 || len(ps.Ub) != m-1 {
				t.Fatalf("Ua/Ub sizes %d/%d, want %d/%d", len(ps.Ua), len(ps.Ub), n-1, m-1)
			}
			// Reconstruct full potentials: wire i at srcU, wire j at 0.
			vPot := make([]float64, n)
			hPot := make([]float64, m)
			hPot[i] = srcU
			ka := 0
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				vPot[k] = ps.Ua[ka]
				ka++
			}
			kb := 0
			for mm := 0; mm < m; mm++ {
				if mm == i {
					continue
				}
				hPot[mm] = ps.Ub[kb]
				kb++
			}
			// Equation at i: U/Z = Σ_k (U − vPot[k]) / R_ik  (incl. k = j).
			srcCurrent := 0.0
			for k := 0; k < n; k++ {
				srcCurrent += (srcU - vPot[k]) / r.At(i, k)
			}
			if rel := math.Abs(srcCurrent-srcU/ps.Z) / (srcU / ps.Z); rel > 1e-9 {
				t.Fatalf("pair (%d,%d): source current %g != U/Z = %g", i, j, srcCurrent, srcU/ps.Z)
			}
			// Equation at each floating vertical wire k ≠ j (the Ua rows).
			for k := 0; k < n; k++ {
				if k == j {
					continue
				}
				net := 0.0
				for mm := 0; mm < m; mm++ {
					net += (hPot[mm] - vPot[k]) / r.At(mm, k)
				}
				if math.Abs(net) > 1e-9*srcU {
					t.Fatalf("pair (%d,%d): KCL violated at vertical wire %d: %g", i, j, k, net)
				}
			}
			// Equation at each floating horizontal wire mm ≠ i (the Ub rows).
			for mm := 0; mm < m; mm++ {
				if mm == i {
					continue
				}
				net := 0.0
				for k := 0; k < n; k++ {
					net += (vPot[k] - hPot[mm]) / r.At(mm, k)
				}
				if math.Abs(net) > 1e-9*srcU {
					t.Fatalf("pair (%d,%d): KCL violated at horizontal wire %d: %g", i, j, mm, net)
				}
			}
		}
	}
}

// TestSensitivityMatchesFiniteDifference validates the adjoint gradient.
func TestSensitivityMatchesFiniteDifference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m, n := 3, 3
	a := grid.New(m, n)
	r := randomField(rng, m, n)
	s, err := NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	sens := s.Sensitivity(1, 2, r)
	base := s.EffectiveResistance(1, 2)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			h := r.At(i, j) * 1e-6
			r2 := r.Clone()
			r2.Set(i, j, r.At(i, j)+h)
			s2, err := NewSolver(a, r2)
			if err != nil {
				t.Fatal(err)
			}
			fd := (s2.EffectiveResistance(1, 2) - base) / h
			if math.Abs(fd-sens.At(i, j)) > 1e-4*(math.Abs(fd)+1e-12)+1e-10 {
				t.Fatalf("∂Z/∂R(%d,%d): adjoint %g, finite difference %g", i, j, sens.At(i, j), fd)
			}
		}
	}
}

// TestCGSolverMatchesDense cross-validates the two solver backends.
func TestCGSolverMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m, n := 5, 6
	a := grid.New(m, n)
	r := randomField(rng, m, n)
	dense, err := NewSolver(a, r)
	if err != nil {
		t.Fatal(err)
	}
	cg := newCGSolver(a, r, 1e-13)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := dense.EffectiveResistance(i, j)
			got, err := cg.EffectiveResistance(i, j)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-6*want {
				t.Fatalf("pair (%d,%d): CG %g vs dense %g", i, j, got, want)
			}
		}
	}
}

// TestUniformArrayZSymmetry: with a uniform field on a square array, Z must
// be identical for every pair by symmetry.
func TestUniformArrayZSymmetry(t *testing.T) {
	a := grid.NewSquare(4)
	r := grid.UniformField(4, 4, 5000)
	z, err := MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	first := z.At(0, 0)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if math.Abs(z.At(i, j)-first) > 1e-9 {
				t.Fatalf("Z(%d,%d) = %g breaks symmetry (Z(0,0) = %g)", i, j, z.At(i, j), first)
			}
		}
	}
	if first >= 5000 || first <= 0 {
		t.Fatalf("uniform-array Z = %g out of (0, 5000)", first)
	}
}

func randomField(rng *rand.Rand, m, n int) *grid.Field {
	f := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			// The paper's range: 2,000 – 11,000 kΩ.
			f.Set(i, j, 2000+9000*rng.Float64())
		}
	}
	return f
}

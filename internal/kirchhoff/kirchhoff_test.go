package kirchhoff

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"parma/internal/circuit"
	"parma/internal/grid"
)

func testProblem(t *testing.T, m, n int, seed int64) (*Problem, *grid.Field) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	r := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			r.Set(i, j, 2000+9000*rng.Float64())
		}
	}
	a := grid.New(m, n)
	z, err := circuit.MeasureAll(a, r)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProblem(a, z, 5.0)
	if err != nil {
		t.Fatal(err)
	}
	return p, r
}

// syntheticProblem builds an m×n problem with a synthetic positive Z.
// Formation and serialization read Z only through U/Z, so sizes the
// forward simulator would take long over need not run it.
func syntheticProblem(tb testing.TB, m, n int) *Problem {
	tb.Helper()
	z := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			z.Set(i, j, 1000+float64(37*i+11*j))
		}
	}
	p, err := NewProblem(grid.New(m, n), z, 5.0)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

func TestSystemCensusMatchesPaper(t *testing.T) {
	// The paper: 2n³ equations, (2n−1)·n² unknowns for square arrays.
	for _, n := range []int{2, 3, 10, 100} {
		c := SystemCensus(grid.NewSquare(n))
		if c.Equations != 2*n*n*n {
			t.Errorf("n=%d: equations = %d, want %d", n, c.Equations, 2*n*n*n)
		}
		if c.Unknowns != (2*n-1)*n*n {
			t.Errorf("n=%d: unknowns = %d, want %d", n, c.Unknowns, (2*n-1)*n*n)
		}
		if c.EquationsPerPair != 2*n {
			t.Errorf("n=%d: per pair = %d, want %d", n, c.EquationsPerPair, 2*n)
		}
	}
	// Rectangular: mn(m+n) equations, mn(m+n−1) unknowns.
	c := SystemCensus(grid.New(3, 5))
	if c.Equations != 3*5*(3+5) || c.Unknowns != 3*5*(3+5-1) {
		t.Errorf("3x5 census = %+v", c)
	}
}

// TestLosslessConversion is the reproduction's core correctness test: every
// formed equation must have zero residual at the physical ground truth.
// This is what "lossless conversion" (§IV-A) means operationally.
func TestLosslessConversion(t *testing.T) {
	for _, dims := range [][2]int{{2, 2}, {3, 3}, {4, 3}, {3, 5}, {6, 6}} {
		p, r := testProblem(t, dims[0], dims[1], int64(dims[0]*100+dims[1]))
		st, err := GroundTruthState(p.Array, r, p.SourceU)
		if err != nil {
			t.Fatal(err)
		}
		eqs := p.FormAll()
		if len(eqs) != SystemCensus(p.Array).Equations {
			t.Fatalf("%v: formed %d equations, want %d", dims, len(eqs), SystemCensus(p.Array).Equations)
		}
		// Residuals are flows (volts per kilohm); compare against the
		// natural flow scale U/Z.
		for _, e := range eqs {
			res := e.Residual(st)
			scale := p.SourceU / p.Z.At(e.PairI, e.PairJ)
			if rel := res / scale; rel > 1e-9 || rel < -1e-9 {
				t.Fatalf("%v: %s has relative residual %g at ground truth", dims, e.String(), rel)
			}
		}
	}
}

// TestResidualNonzeroOffTruth guards against a vacuous residual: perturbing
// the resistance field must break the equations.
func TestResidualNonzeroOffTruth(t *testing.T) {
	p, r := testProblem(t, 3, 3, 7)
	st, err := GroundTruthState(p.Array, r, p.SourceU)
	if err != nil {
		t.Fatal(err)
	}
	st.R.Set(1, 1, st.R.At(1, 1)*2)
	if MaxResidual(p.FormAll(), st) < 1e-8 {
		t.Fatal("residuals stayed zero after perturbing R")
	}
}

func TestFormPairCanonicalOrder(t *testing.T) {
	p, _ := testProblem(t, 3, 4, 11)
	var got []Equation
	p.FormPair(1, 2, func(e Equation) { got = append(got, e) })
	if len(got) != 2+(4-1)+(3-1) {
		t.Fatalf("block size %d", len(got))
	}
	wantCats := []Category{CatSource, CatDest, CatUa, CatUa, CatUa, CatUb, CatUb}
	for i, e := range got {
		if e.Cat != wantCats[i] {
			t.Fatalf("slot %d: category %v, want %v", i, e.Cat, wantCats[i])
		}
		if p.EquationIndex(e) != p.EquationIndex(got[0])+i {
			t.Fatalf("slot %d: non-contiguous canonical index", i)
		}
	}
	// Ua layers ascend 0,1,2; Ub layers 0,1.
	if got[2].Layer != 0 || got[3].Layer != 1 || got[4].Layer != 2 {
		t.Fatal("Ua layers out of order")
	}
	if got[5].Layer != 0 || got[6].Layer != 1 {
		t.Fatal("Ub layers out of order")
	}
}

func TestEquationIndexIsBijective(t *testing.T) {
	p, _ := testProblem(t, 4, 3, 13)
	census := SystemCensus(p.Array)
	seen := make([]bool, census.Equations)
	for _, e := range p.FormAll() {
		idx := p.EquationIndex(e)
		if idx < 0 || idx >= census.Equations {
			t.Fatalf("index %d out of range", idx)
		}
		if seen[idx] {
			t.Fatalf("index %d assigned twice", idx)
		}
		seen[idx] = true
	}
}

// TestFormCategoryMatchesFormPair renders each equation inside emit: the
// Terms are borrowed and the next equation overwrites them.
func TestFormCategoryMatchesFormPair(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 17)
	var viaPair, viaCat []string
	p.FormPair(2, 1, func(e Equation) { viaPair = append(viaPair, e.String()) })
	for _, cat := range Categories {
		p.FormCategory(2, 1, cat, func(e Equation) { viaCat = append(viaCat, e.String()) })
	}
	if len(viaPair) != len(viaCat) {
		t.Fatalf("sizes %d vs %d", len(viaPair), len(viaCat))
	}
	for i := range viaPair {
		if viaPair[i] != viaCat[i] {
			t.Fatalf("equation %d differs:\n%s\n%s", i, viaPair[i], viaCat[i])
		}
	}
}

func TestTermStructure(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 19)
	src := p.FormSource(0, 1, nil)
	// n terms: the direct branch plus n−1 detours.
	if len(src.Terms) != 3 {
		t.Fatalf("source terms = %d, want 3", len(src.Terms))
	}
	if src.Terms[0].Plus.Kind != VoltU || src.Terms[0].Minus.Kind != VoltNone {
		t.Fatal("direct branch shape wrong")
	}
	if src.Terms[0].RI != 0 || src.Terms[0].RJ != 1 {
		t.Fatal("direct branch resistor wrong")
	}
	ua := p.FormUa(0, 1, 2, nil) // k=2 > j=1 ⇒ k' = 1
	if ua.Layer != 1 {
		t.Fatalf("Ua layer = %d, want 1", ua.Layer)
	}
	if ua.Flow != 0 {
		t.Fatal("Ua equation has nonzero flow")
	}
	// First term (U − Ua[1])/R[0,2]; remaining terms negative.
	if ua.Terms[0].Sign != 1 || ua.Terms[0].RJ != 2 {
		t.Fatal("Ua inflow term wrong")
	}
	for _, term := range ua.Terms[1:] {
		if term.Sign != -1 {
			t.Fatal("Ua outflow term has wrong sign")
		}
	}
}

func TestFormUaPanicsAtDestination(t *testing.T) {
	p, _ := testProblem(t, 2, 2, 23)
	defer func() {
		if recover() == nil {
			t.Fatal("FormUa(k=j) did not panic")
		}
	}()
	p.FormUa(0, 1, 1, nil)
}

func TestNewProblemValidation(t *testing.T) {
	a := grid.NewSquare(2)
	z := grid.UniformField(2, 2, 100)
	if _, err := NewProblem(a, grid.UniformField(3, 3, 1), 5); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := NewProblem(a, z, 0); err == nil {
		t.Fatal("zero voltage accepted")
	}
	bad := z.Clone()
	bad.Set(0, 0, -1)
	if _, err := NewProblem(a, bad, 5); err == nil {
		t.Fatal("negative Z accepted")
	}
}

func TestSerializeParseRoundTrip(t *testing.T) {
	p, _ := testProblem(t, 3, 4, 29)
	eqs := p.FormAll()
	var buf bytes.Buffer
	n, err := WriteSystem(&buf, eqs)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n == 0 {
		t.Fatalf("BytesWritten %d vs buffer %d", n, buf.Len())
	}
	parsed, err := ParseSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(eqs) {
		t.Fatalf("parsed %d equations, want %d", len(parsed), len(eqs))
	}
	for i := range eqs {
		if eqs[i].String() != parsed[i].String() {
			t.Fatalf("round trip mismatch at %d:\n%s\n%s", i, eqs[i], parsed[i])
		}
	}
}

func TestParseSkipsCommentsAndBlank(t *testing.T) {
	in := "# header\n\neq p=(0,0) source[0]: + U/R[0,0] = 2.5\n"
	eqs, err := ParseSystem(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) != 1 || eqs[0].Cat != CatSource || eqs[0].Flow != 2.5 {
		t.Fatalf("parsed %+v", eqs)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"nonsense\n",
		"eq p=(0,0) mystery[0]: + U/R[0,0] = 1\n",
		"eq p=(0,0) source[0]: + U/R[0,0] = notafloat\n",
	} {
		if _, err := ParseSystem(strings.NewReader(in)); err == nil {
			t.Errorf("input %q parsed without error", in)
		}
	}
}

// TestChecksumOrderSensitive: callers XOR per-equation digests, so the
// system digest is blind to the order of formation. What it must catch is
// a schedule that forms one canonical slot twice and skips another, which
// leaves the XOR as it was only if the two slots digest alike: every
// slot's digest must differ. (The order of terms within an equation is
// TestChecksumSeesEveryField's.)
func TestChecksumOrderSensitive(t *testing.T) {
	p, _ := testProblem(t, 3, 3, 31)
	seen := make(map[uint64]int)
	for idx, e := range p.FormAll() {
		h := Checksum(e)
		if prev, dup := seen[h]; dup {
			t.Fatalf("equations %d and %d share digest %x", prev, idx, h)
		}
		seen[h] = idx
	}
}

// TestGroundTruthLosslessProperty: randomized fields keep residuals zero.
func TestGroundTruthLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 2+rng.Intn(3), 2+rng.Intn(3)
		r := grid.NewField(m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				r.Set(i, j, 100+10000*rng.Float64())
			}
		}
		a := grid.New(m, n)
		z, err := circuit.MeasureAll(a, r)
		if err != nil {
			return false
		}
		p, err := NewProblem(a, z, 5)
		if err != nil {
			return false
		}
		st, err := GroundTruthState(a, r, 5)
		if err != nil {
			return false
		}
		return MaxResidual(p.FormAll(), st) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

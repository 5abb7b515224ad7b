package solver

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
)

// TestRecoverExact is the end-to-end inverse-problem test: generate a
// ground-truth field, measure Z with the forward model, recover R from Z
// alone, and compare.
func TestRecoverExact(t *testing.T) {
	for _, n := range []int{2, 4, 6} {
		rng := rand.New(rand.NewSource(int64(n)))
		truth := grid.NewField(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				truth.Set(i, j, 2000+9000*rng.Float64())
			}
		}
		a := grid.NewSquare(n)
		z, err := circuit.MeasureAll(a, truth)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: 1e-10})
		if err != nil {
			t.Fatalf("n=%d: %v (residual %g after %d iters)", n, err, res.Residual, res.Iterations)
		}
		rel := res.R.MaxAbsDiff(truth) / truth.Max()
		if rel > 1e-4 {
			t.Fatalf("n=%d: max relative field error %g", n, rel)
		}
	}
}

// TestRecoverAnomalousField: the recovery must resolve an anomaly blob well
// enough that its cells stand out.
func TestRecoverAnomalousField(t *testing.T) {
	cfg := gen.Config{
		Rows: 6, Cols: 6, Seed: 44,
		Anomalies: []gen.Anomaly{{CenterI: 3, CenterJ: 3, RadiusI: 1.2, RadiusJ: 1.2, Factor: 5}},
	}
	truth, z, err := gen.Measurements(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), grid.New(6, 6), z, RecoverOptions{Tol: 1e-9})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	// The anomalous center cell must be recovered within 5%.
	want, got := truth.At(3, 3), res.R.At(3, 3)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("anomaly cell recovered as %g, truth %g", got, want)
	}
}

func TestRecoverRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, n := 3, 5
	truth := grid.NewField(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			truth.Set(i, j, 1000+5000*rng.Float64())
		}
	}
	a := grid.New(m, n)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{})
	if err != nil {
		t.Fatalf("%v (residual %g)", err, res.Residual)
	}
	if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e-3 {
		t.Fatalf("relative error %g", rel)
	}
}

func TestRecoverValidation(t *testing.T) {
	a := grid.NewSquare(2)
	if _, err := Recover(context.Background(), a, grid.UniformField(3, 3, 1), RecoverOptions{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
	if _, err := Recover(context.Background(), a, grid.NewField(2, 2), RecoverOptions{}); err == nil {
		t.Fatal("zero measurements accepted")
	}
	bad := grid.UniformField(2, 2, 100)
	init := grid.NewField(2, 2) // zero initial resistances
	if _, err := Recover(context.Background(), a, bad, RecoverOptions{Initial: init}); err == nil {
		t.Fatal("non-positive initial field accepted")
	}
}

func TestRecoverWithProvidedInitial(t *testing.T) {
	n := 3
	truth := grid.UniformField(n, n, 4000)
	a := grid.NewSquare(n)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{Initial: grid.UniformField(n, n, 1000)})
	if err != nil {
		t.Fatal(err)
	}
	if rel := res.R.MaxAbsDiff(truth) / 4000; rel > 1e-5 {
		t.Fatalf("relative error %g", rel)
	}
}

// TestRecoverRejectsBadOptions: a negative, NaN or infinite Tol and a
// negative MaxIter are caller errors, reported before any forward solve and
// not as ErrDiverged.
func TestRecoverRejectsBadOptions(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 12, Cols: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.NewSquare(12)
	for _, opts := range []RecoverOptions{
		{Tol: -1}, {Tol: math.NaN()}, {Tol: math.Inf(1)}, {Tol: math.Inf(-1)}, {MaxIter: -5},
	} {
		res, err := Recover(context.Background(), a, z, opts)
		if err == nil || errors.Is(err, ErrDiverged) {
			t.Errorf("Tol %g MaxIter %d: err = %v, want a validation error", opts.Tol, opts.MaxIter, err)
		}
		if res.Iterations != 0 || res.CGIterations != 0 {
			t.Errorf("Tol %g MaxIter %d: ran %d LM / %d CG iterations before rejecting",
				opts.Tol, opts.MaxIter, res.Iterations, res.CGIterations)
		}
	}
}

// TestRecoverRejectsMalformedZ: a NaN, infinite, zero or negative
// measurement is a caller error naming its (i, j), reported before any
// forward solve, not a singular Laplacian or an ErrDiverged after tens of
// LM steps.
func TestRecoverRejectsMalformedZ(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 8, Cols: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.NewSquare(8)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -z.At(3, 5)} {
		zb := z.Clone()
		zb.Set(3, 5, bad)
		res, err := Recover(context.Background(), a, zb, RecoverOptions{})
		if err == nil || errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "Z(3,5)") {
			t.Errorf("Z(3,5) = %g: err = %v, want a validation error naming (3,5)", bad, err)
		}
		if res.Iterations != 0 || res.CGIterations != 0 || res.FactorTime != 0 {
			t.Errorf("Z(3,5) = %g: ran %d LM / %d CG iterations and %v of forward solves before rejecting",
				bad, res.Iterations, res.CGIterations, res.FactorTime)
		}
	}
}

// TestRecoverReportsMaxIterSteps: a recovery cut by its MaxIter budget took
// exactly MaxIter accepted steps and reports that many.
func TestRecoverReportsMaxIterSteps(t *testing.T) {
	_, z, err := gen.Measurements(gen.Config{Rows: 12, Cols: 12, Seed: 7,
		Anomalies: []gen.Anomaly{{CenterI: 4, CenterJ: 6, RadiusI: 2, RadiusJ: 2, Factor: 4}}})
	if err != nil {
		t.Fatal(err)
	}
	a := grid.NewSquare(12)
	full, err := Recover(context.Background(), a, z, RecoverOptions{})
	if err != nil || full.Iterations <= 3 {
		t.Fatalf("medium converges in %d steps (err %v), want more than 3", full.Iterations, err)
	}
	for maxIter := 1; maxIter <= 3; maxIter++ {
		res, err := Recover(context.Background(), a, z, RecoverOptions{MaxIter: maxIter})
		if !errors.Is(err, ErrDiverged) {
			t.Fatalf("MaxIter %d: err = %v, want ErrDiverged", maxIter, err)
		}
		if res.Iterations != maxIter {
			t.Errorf("MaxIter %d: reports %d iterations", maxIter, res.Iterations)
		}
	}
}

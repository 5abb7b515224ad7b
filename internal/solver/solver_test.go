package solver

import (
	"context"
	"math"
	"math/rand"
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

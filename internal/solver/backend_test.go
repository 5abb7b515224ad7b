package solver

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
)

// TestDefaultBackendIsCrossAtEverySize pins the one-backend contract: with
// default options every geometry, down to a single resistor and the
// degenerate single-wire strips, runs the cross-pattern step (NNZ is the
// cross's m·n·(m+n−1)), converges, and recovers the field to within 1e3·tol.
func TestDefaultBackendIsCrossAtEverySize(t *testing.T) {
	for _, g := range [][2]int{{1, 1}, {1, 2}, {1, 5}, {5, 1}, {2, 2}, {2, 3}, {3, 3}, {4, 4}, {3, 7}, {8, 8}} {
		m, n := g[0], g[1]
		rng := rand.New(rand.NewSource(int64(100*m + n)))
		truth := grid.NewField(m, n)
		tv := truth.Values()
		for i := range tv {
			tv[i] = 2000 + 9000*rng.Float64()
		}
		a := grid.New(m, n)
		z, err := circuit.MeasureAll(a, truth)
		if err != nil {
			t.Fatal(err)
		}
		for _, tol := range []float64{1e-8, 1e-10} {
			res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: tol})
			if err != nil {
				t.Fatalf("%dx%d tol %g: %v (residual %g after %d iters)", m, n, tol, err, res.Residual, res.Iterations)
			}
			if want := m * n * (m + n - 1); res.NNZ != want {
				t.Fatalf("%dx%d tol %g: NNZ %d, want the cross's %d", m, n, tol, res.NNZ, want)
			}
			if rel := res.R.MaxAbsDiff(truth) / truth.Max(); rel > 1e3*tol {
				t.Fatalf("%dx%d tol %g: relative field error %g", m, n, tol, rel)
			}
		}
	}
}

// BenchmarkRecoverSmall is the small-array record of the default backend
// against the dense reference: cold recoveries at tol 1e-8 over eight media
// per size, each with one 4× anomaly. Run it with -cpu 1 -benchtime 48x to
// visit every medium equally often; docs/performance.md tabulates it.
func BenchmarkRecoverSmall(b *testing.B) {
	const media = 8
	for _, n := range []int{4, 6, 8, 10, 12} {
		a := grid.NewSquare(n)
		zs := make([]*grid.Field, media)
		for k := range zs {
			_, z, err := gen.Measurements(gen.Config{Rows: n, Cols: n, Seed: int64(2022 + k),
				Anomalies: []gen.Anomaly{{CenterI: float64(n) / 3, CenterJ: float64(n) / 2, RadiusI: 1.5, RadiusJ: 1.5, Factor: 4}}})
			if err != nil {
				b.Fatal(err)
			}
			zs[k] = z
		}
		for _, backend := range []struct {
			name   string
			method Method
		}{{"default", MethodSparse}, {"dense", MethodDense}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, backend.name), func(b *testing.B) {
				var lm, cg int
				for i := 0; i < b.N; i++ {
					res, err := Recover(context.Background(), a, zs[i%media], RecoverOptions{Tol: 1e-8, Method: backend.method})
					if err != nil {
						b.Fatal(err)
					}
					lm, cg = lm+res.Iterations, cg+res.CGIterations
				}
				b.ReportMetric(float64(lm)/float64(b.N), "lm/op")
				b.ReportMetric(float64(cg)/float64(b.N), "cg/op")
			})
		}
	}
}

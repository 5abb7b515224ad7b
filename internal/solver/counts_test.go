package solver

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
)

// The exact work counts of a recovery (LM steps, CG iterations, NNZ) are
// deterministic functions of seeded inputs, so tier-1 pins them: a change
// that moves one edits the constant here and says old → new in CHANGES.md.

// exactCounts reports whether the pins must hold bit for bit. Go fuses
// multiply-adds on arm64, ppc64le and s390x, which moves the last bits of
// every product and, over a recovery, the CG counts; elsewhere the counts
// are held to a band instead.
var exactCounts = runtime.GOARCH == "amd64"

// checkCount holds a pinned count exactly on amd64 and within 25 % elsewhere.
func checkCount(t *testing.T, name string, got, want int) {
	t.Helper()
	if exactCounts && got != want {
		t.Errorf("%s = %d, want %d", name, got, want)
	}
	if !exactCounts && math.Abs(float64(got-want)) > 0.25*float64(want) {
		t.Errorf("%s = %d, want %d ± 25 %%", name, got, want)
	}
}

// seededAnomalies places k elliptical anomalies inside an n×n medium. It is
// benchmark/recover.go's generator of the recover-64 media, copied so that
// these pins read the benchmark's counted recoveries without the harness.
func seededAnomalies(n int, seed int64, k int) []gen.Anomaly {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	out := make([]gen.Anomaly, k)
	for i := range out {
		radius := func() float64 { return float64(n) * (0.08 + 0.08*rng.Float64()) }
		out[i] = gen.Anomaly{
			CenterI: float64(n) * (0.2 + 0.6*rng.Float64()),
			CenterJ: float64(n) * (0.2 + 0.6*rng.Float64()),
			RadiusI: math.Max(1, radius()),
			RadiusJ: math.Max(1, radius()),
		}
	}
	return out
}

// benchRecovery recovers the benchmark's n×n medium for seed (one anomaly,
// scaled by factor; zero keeps gen.AnomalyFactor) with default options and
// checks it as the benchmark does: converged, residual ≤ 1e-8. It returns
// the result and its max relative error against the hidden field.
func benchRecovery(t *testing.T, n int, seed int64, factor float64) (RecoverResult, float64) {
	t.Helper()
	anomalies := seededAnomalies(n, seed, 1)
	anomalies[0].Factor = factor
	truth := gen.Medium(gen.Config{Rows: n, Cols: n, Seed: seed, Anomalies: anomalies})
	a := grid.NewSquare(n)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Recover(context.Background(), a, z, RecoverOptions{})
	if err != nil || res.Residual > 1e-8 {
		t.Fatalf("%dx%d seed %d: err %v, residual %g", n, n, seed, err, res.Residual)
	}
	return res, maxRelErr(res.R, truth)
}

// TestRecoverCountsPinned pins the benchmark's exact solver counts: Σ LM,
// Σ CG and Σ NNZ over recover-64's two counted media (64×64, seeds 2022 and
// 2023), their max relative error against the hidden field within 1 %, and
// solver.cg_iters_n32 / cg_iters_n16 at seed 2022.
func TestRecoverCountsPinned(t *testing.T) {
	const (
		wantLM, wantCG, wantNNZ = 17, 179, 1040384
		wantRelErr              = 3.003e-5
		wantN32, wantN16        = 70, 70
	)
	var lm, cg, nnz int
	var relErr float64
	for _, seed := range []int64{2022, 2023} {
		res, e := benchRecovery(t, 64, seed, 0)
		lm, cg, nnz = lm+res.Iterations, cg+res.CGIterations, nnz+res.NNZ
		relErr = math.Max(relErr, e)
	}
	n32, _ := benchRecovery(t, 32, 2022, 0)
	n16, _ := benchRecovery(t, 16, 2022, 0)
	t.Logf("LM %d, CG %d, NNZ %d, max rel. error %.4g, CG n32 %d, n16 %d",
		lm, cg, nnz, relErr, n32.CGIterations, n16.CGIterations)
	checkCount(t, "Σ LM", lm, wantLM)
	checkCount(t, "Σ CG", cg, wantCG)
	checkCount(t, "Σ NNZ", nnz, wantNNZ)
	checkCount(t, "cg_iters_n32", n32.CGIterations, wantN32)
	checkCount(t, "cg_iters_n16", n16.CGIterations, wantN16)
	if exactCounts && math.Abs(relErr-wantRelErr) > 0.01*wantRelErr {
		t.Errorf("max relative error %.4g, want %.4g ± 1 %%", relErr, wantRelErr)
	}
	if relErr > 1e-4 {
		t.Errorf("max relative error %.4g above the benchmark's 1e-4", relErr)
	}
}

// TestRecoverSeries32CountsPinned pins BenchmarkRecoverSeries32's work: the
// LM steps and CG iterations summed over every job of each start, run once.
func TestRecoverSeries32CountsPinned(t *testing.T) {
	want := map[string][2]int{"cold": {83, 914}, "near": {36, 407}, "far": {72, 1126}}
	a, jobs := series32Jobs(t)
	for _, start := range seriesStarts {
		var lm, cg int
		for _, j := range jobs[start] {
			res, err := Recover(context.Background(), a, j.z, RecoverOptions{Initial: j.initial})
			if err != nil {
				t.Fatalf("%s: %v (residual %g)", start, err, res.Residual)
			}
			lm, cg = lm+res.Iterations, cg+res.CGIterations
		}
		t.Logf("%s: %d jobs, LM %d, CG %d", start, len(jobs[start]), lm, cg)
		checkCount(t, start+" Σ LM", lm, want[start][0])
		checkCount(t, start+" Σ CG", cg, want[start][1])
	}
}

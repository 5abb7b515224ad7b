package solver

import (
	"context"
	"fmt"
	"math"
	"testing"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
)

// maxRelErr is the largest per-cell |R − truth|/truth.
func maxRelErr(r, truth *grid.Field) float64 {
	worst := 0.0
	rv := r.Values()
	for d, tv := range truth.Values() {
		worst = math.Max(worst, math.Abs(rv[d]-tv)/tv)
	}
	return worst
}

// TestInexactStepsKeepLMTrajectory pins defaultCGTol's measurement: stopping
// each damped CG solve at the loose production tolerance instead of 1e-10
// takes the same number of LM steps to the same tolerance and recovers the
// hidden field as well, in at most 0.6× the CG iterations.
func TestInexactStepsKeepLMTrajectory(t *testing.T) {
	for _, c := range []struct {
		m, n int
		tol  float64
	}{{16, 16, 1e-8}, {24, 40, 1e-8}, {32, 32, 1e-8}, {32, 32, 1e-12}} {
		t.Run(fmt.Sprintf("%dx%d/tol=%g", c.m, c.n, c.tol), func(t *testing.T) {
			truth, z, err := gen.Measurements(gen.Config{
				Rows: c.m, Cols: c.n, Seed: 2022,
				Anomalies: []gen.Anomaly{{CenterI: float64(c.m) / 3, CenterJ: float64(c.n) / 2, RadiusI: 3, RadiusJ: 3, Factor: 4}},
			})
			if err != nil {
				t.Fatal(err)
			}
			a := grid.New(c.m, c.n)
			run := func(cgTol float64) RecoverResult {
				defer func(prev float64) { defaultCGTol = prev }(defaultCGTol)
				defaultCGTol = cgTol
				res, err := Recover(context.Background(), a, z, RecoverOptions{Tol: c.tol})
				if err != nil {
					t.Fatalf("CG tol %g: %v (residual %g after %d iterations)", cgTol, err, res.Residual, res.Iterations)
				}
				if res.Residual > c.tol {
					t.Fatalf("CG tol %g: residual %g above %g", cgTol, res.Residual, c.tol)
				}
				if e := maxRelErr(res.R, truth); e > 1e-4 {
					t.Fatalf("CG tol %g: max relative error %g against the hidden field", cgTol, e)
				}
				return res
			}
			loose, tight := run(defaultCGTol), run(1e-10)
			t.Logf("LM %d / %d, CG %d / %d", loose.Iterations, tight.Iterations, loose.CGIterations, tight.CGIterations)
			if loose.Iterations != tight.Iterations {
				t.Errorf("LM iterations %d, want the tight solve's %d", loose.Iterations, tight.Iterations)
			}
			if float64(loose.CGIterations) > 0.6*float64(tight.CGIterations) {
				t.Errorf("CG iterations %d, want at most 0.6× the tight solve's %d", loose.CGIterations, tight.CGIterations)
			}
		})
	}
}

// TestSolveUsesUnconvergedCGStep pins the inexact-step fallback: a CG that
// cannot meet its tolerance still hands back its best iterate as the step,
// counts solver/cg_noconv once, and that iterate is the converged step to
// 1e-6. At a tolerance below any reachable residual CG stops at
// float64 round-off with ErrNoConvergence, not with a breakdown.
func TestSolveUsesUnconvergedCGStep(t *testing.T) {
	ctx := context.Background()
	st, fwd, r, res := refreshFixture(t, 8)
	st.prepare(ctx, fwd, r, res)
	const lambda = 1e-3
	want := mat.NewVector(st.Dim())
	st.cgTol = 1e-10
	if ok, err := st.solve(ctx, want, lambda); !ok || err != nil {
		t.Fatalf("converged solve: ok=%v err=%v", ok, err)
	}

	obs.Enable(obs.NewRecorder())
	defer obs.Disable()
	st.cgTol = -1 // below any reachable residual: CG runs out its budget
	got := mat.NewVector(st.Dim())
	ok, err := st.solve(ctx, got, lambda)
	if !ok || err != nil {
		t.Fatalf("unconverged solve: ok=%v err=%v, want a usable step", ok, err)
	}
	if n := obs.GetCounter("solver/cg_noconv").Value(); n != 1 {
		t.Fatalf("solver/cg_noconv = %d, want 1", n)
	}
	diff := mat.NewVector(len(got))
	for i := range got {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) {
			t.Fatalf("step[%d] = %g", i, got[i])
		}
		diff[i] = got[i] - want[i]
	}
	if rel := diff.Norm2() / want.Norm2(); rel > 1e-6 {
		t.Fatalf("unconverged step differs from the converged one by %g (relative)", rel)
	}
}

// TestCGBreakdownClimbsDampingLadder covers solver/cg_breakdowns. At
// λ = −2 the damped operator S − 2·diag S is indefinite, so CG meets a
// direction with pᵀAp ≤ 0: solve must report (false, nil), which sends the
// caller up the damping ladder, and count one breakdown. A recovery whose
// first solve breaks down that way must retry at ten times the λ and still
// converge.
func TestCGBreakdownClimbsDampingLadder(t *testing.T) {
	ctx := context.Background()
	obs.Enable(obs.NewRecorder())
	defer obs.Disable()
	st, fwd, r, res := refreshFixture(t, 8)
	st.prepare(ctx, fwd, r, res)
	if ok, err := st.solve(ctx, mat.NewVector(st.Dim()), -2); ok || err != nil {
		t.Fatalf("indefinite solve: ok=%v err=%v, want (false, nil)", ok, err)
	}
	if n := obs.GetCounter("solver/cg_breakdowns").Value(); n != 1 {
		t.Fatalf("solver/cg_breakdowns = %d after one breakdown, want 1", n)
	}

	obs.Enable(obs.NewRecorder())
	brk := &breakFirstSolve{}
	truth := testField(8, 8)
	a := grid.NewSquare(8)
	z, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Recover(ctx, a, z, RecoverOptions{wrap: func(st gnStepper) gnStepper {
		brk.gnStepper = st
		return brk
	}})
	if err != nil || out.Residual > 1e-8 {
		t.Fatalf("recovery after a breakdown: err %v, residual %g", err, out.Residual)
	}
	if n := obs.GetCounter("solver/cg_breakdowns").Value(); n != 1 {
		t.Fatalf("solver/cg_breakdowns = %d, want 1", n)
	}
	if len(brk.lambdas) < 2 || brk.lambdas[1] != 10*brk.lambdas[0] {
		t.Fatalf("λ after the breakdown: %v, want the first λ times ten", brk.lambdas)
	}
}

// breakFirstSolve runs a recovery's first solve at λ = −2, a real CG
// breakdown, and passes every later solve through; it records the λ each
// solve was asked for.
type breakFirstSolve struct {
	gnStepper
	lambdas []float64
}

func (b *breakFirstSolve) solve(ctx context.Context, step mat.Vector, lambda float64) (bool, error) {
	b.lambdas = append(b.lambdas, lambda)
	if len(b.lambdas) == 1 {
		lambda = -2
	}
	return b.gnStepper.solve(ctx, step, lambda)
}

// TestSquareStepConvergesOverAnomalyRange guards the square step's one
// theoretical gap. As λ grows, the damped step D·(S + λ·Λ)⁻¹·res tends to
// D·Λ⁻¹·res, which, unlike the normal-equation step it replaced, is not
// guaranteed to descend on ‖res‖², so the damping ladder is no longer a
// theorem. Anomaly factors 4, 8 and 16 over the paper's 2,000–11,000 kΩ
// background, at 16×16 to 48×48 and three media each, must all converge to
// the default tolerance and recover the hidden field to 1e-4.
func TestSquareStepConvergesOverAnomalyRange(t *testing.T) {
	for _, n := range []int{16, 24, 32, 48} {
		for _, factor := range []float64{4, 8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				if _, e := benchRecovery(t, n, seed, factor); e > 1e-4 {
					t.Errorf("%dx%d factor %g seed %d: max relative error %g", n, n, factor, seed, e)
				}
			}
		}
	}
}

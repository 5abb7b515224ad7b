package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/solver"
)

// recover-64: the paper's device size and ROADMAP's "make 64×64
// interactive" target. One operation is one cold solver.Recover with
// default options (auto resolves to the sparse backend at this size) on one
// of a pool of distinct 64×64 media with one anomaly each.
var recover64 = workload{
	name: "recover-64",
	why: "Cold 64x64 recoveries in process: sparse, solver and circuit do everything, with no HTTP and no formation. " +
		"The workload on which a preconditioner, CG or Jacobian change must show.",
	setup: setupRecover,
}

const (
	recoverSize      = 64
	recoverQuickSize = 16
	recoverPool      = 8 // distinct media, cycled
	recoverTol       = 1e-8
	recoverMaxRelErr = 1e-4 // recovered vs ground-truth R; measured ~1e-6
)

// seededAnomalies places k elliptical anomalies inside an n×n medium.
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

// medium is one generated input: the hidden field and what the device
// measures. The program under test sees only z.
type medium struct {
	arr  grid.Array
	r, z *grid.Field
}

func newMedium(rows, cols int, seed int64, anomalies int) (medium, error) {
	n := rows
	if cols < n {
		n = cols
	}
	cfg := gen.Config{Rows: rows, Cols: cols, Seed: seed, Anomalies: seededAnomalies(n, seed, anomalies)}
	return measured(grid.New(rows, cols), gen.Medium(cfg))
}

// measured runs the forward simulator over a hidden field.
func measured(arr grid.Array, r *grid.Field) (medium, error) {
	z, err := circuit.MeasureAll(arr, r)
	if err != nil {
		return medium{}, fmt.Errorf("forward measurement: %w", err)
	}
	return medium{arr: arr, r: r, z: z}, nil
}

// maxRelErr is the largest relative deviation of got from want.
func maxRelErr(got, want *grid.Field) float64 {
	var worst float64
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if e := math.Abs(got.At(i, j)-want.At(i, j)) / math.Abs(want.At(i, j)); e > worst {
				worst = e
			}
		}
	}
	return worst
}

type recoverInstance struct {
	media []medium
}

func setupRecover(cfg config) (instance, error) {
	n := recoverSize
	if cfg.quick {
		n = recoverQuickSize
	}
	in := &recoverInstance{}
	for k := 0; k < recoverPool; k++ {
		md, err := newMedium(n, n, cfg.seed+int64(k), 1)
		if err != nil {
			return nil, fmt.Errorf("recover-64 set-up: %w", err)
		}
		in.media = append(in.media, md)
	}
	// Warm-up: one small recovery through the same sparse path, so the
	// kernel pool is started and the code is paged in before the clock.
	warm, err := newMedium(recoverQuickSize, recoverQuickSize, cfg.seed-1, 1)
	if err != nil {
		return nil, fmt.Errorf("recover-64 set-up: %w", err)
	}
	if _, err := solver.Recover(context.Background(), warm.arr, warm.z, solver.RecoverOptions{Method: solver.MethodSparse}); err != nil {
		return nil, fmt.Errorf("recover-64 warm-up: %w", err)
	}
	return in, nil
}

func (in *recoverInstance) pids() []int      { return nil }
func (in *recoverInstance) tracks() []string { return []string{"harness"} }
func (in *recoverInstance) close()           {}

// checkRecovery applies the correctness rule every recovery in the
// benchmark must meet: converged, and close to the hidden field.
func checkRecovery(res solver.RecoverResult, truth *grid.Field) error {
	if !(res.Residual <= recoverTol) {
		return fmt.Errorf("residual %.3g exceeds %.0e", res.Residual, recoverTol)
	}
	if e := maxRelErr(res.R, truth); !(e <= recoverMaxRelErr) {
		return fmt.Errorf("max relative error %.3g vs ground truth exceeds %.0e", e, recoverMaxRelErr)
	}
	return nil
}

func (in *recoverInstance) run(seconds float64, rec *recorder) *measurement {
	m := &measurement{}
	cpu := startCPU(nil)
	m.region.lo = rec.now()
	m.closed = closedLoop(seconds, func(i int) bool {
		md := in.media[i%len(in.media)]
		root := rec.begin("harness", "recover-64.recovery", 0, -1, i)
		defer rec.end(root)
		sp := rec.begin("solver", "solver.Recover", 0, root, i)
		startAt := rec.now()
		res, err := solver.Recover(context.Background(), md.arr, md.z, solver.RecoverOptions{})
		rec.end(sp)
		if err != nil {
			m.fail("recovery %d: %v", i, err)
			return false
		}
		// Factorization is interleaved with the solve; the child span carries
		// its summed duration so self time splits circuit from solver.
		rec.add("circuit", "circuit.NewSolver (sum)", 0, sp, i, startAt, startAt+res.FactorTime)
		if err := checkRecovery(res, md.r); err != nil {
			m.fail("recovery %d: %v", i, err)
			return false
		}
		return true
	})
	m.region.hi = rec.now()
	cpu.stop()
	m.cpuS, m.harnessCPU = cpu.self, cpu.self
	return m
}

// measureMatches reports whether the forward simulation of r reproduces z to
// the given relative tolerance — the end-to-end check that a served R is a
// recovery of the submitted measurements.
func measureMatches(arr grid.Array, r, z *grid.Field, tol float64) error {
	got, err := circuit.MeasureAll(arr, r)
	if err != nil {
		return err
	}
	if e := maxRelErr(got, z); !(e <= tol) {
		return fmt.Errorf("forward measurement of the returned R is off by %.3g (limit %.0e)", e, tol)
	}
	return nil
}

package experiments

import (
	"context"
	"fmt"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/solver"
)

// InverseConfig drives the reconstruction-method comparison: the paper's
// §I argues that the conventional approaches (Landweber, linear back
// projection, Tikhonov) are ill-posed, which motivates both the ML line of
// work and Parma's exact formation. This study quantifies the claim.
type InverseConfig struct {
	// N is the array size; zero selects 8.
	N int
	// Noise is the relative measurement noise; zero means clean.
	Noise float64
	// Trials averages over this many media; zero selects 3.
	Trials int
	// Seed bases the trial seeds.
	Seed int64
}

// InverseComparison reconstructs the same anomalous media with all four
// methods and reports the median relative field error of each. Expected
// shape: LM recovers near-exactly on clean data and degrades gracefully;
// the three linearized methods plateau at the linearization error and
// amplify noise — the paper's ill-posedness claim in numbers.
func InverseComparison(cfg InverseConfig) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 8
	}
	if cfg.Trials == 0 {
		cfg.Trials = 3
	}
	methods := []struct {
		name string
		run  func(a grid.Array, z *grid.Field) (*grid.Field, error)
	}{
		{"levenberg-marquardt", func(a grid.Array, z *grid.Field) (*grid.Field, error) {
			res, err := solver.Recover(context.Background(), a, z, solver.RecoverOptions{Tol: 1e-9, MaxIter: 40})
			if err != nil {
				// Under heavy noise LM stops at its floor; the estimate
				// is still the comparison subject.
				return res.R, nil
			}
			return res.R, nil
		}},
		{"tikhonov", func(a grid.Array, z *grid.Field) (*grid.Field, error) {
			return solver.Tikhonov(a, z, solver.TikhonovOptions{})
		}},
		{"landweber", func(a grid.Array, z *grid.Field) (*grid.Field, error) {
			return solver.Landweber(a, z, solver.LandweberOptions{})
		}},
		{"lbp", solver.LBP},
	}

	tbl := NewTable("method", "median_rel_err", "max_rel_err")
	errsByMethod := make([][]float64, len(methods))
	for trial := 0; trial < cfg.Trials; trial++ {
		seed := cfg.Seed + int64(trial)*104729
		mediumCfg := gen.Config{
			Rows: cfg.N, Cols: cfg.N, Seed: seed,
			Anomalies: []gen.Anomaly{{
				CenterI: float64(cfg.N) / 2, CenterJ: float64(cfg.N) / 2,
				RadiusI: float64(cfg.N) / 5, RadiusJ: float64(cfg.N) / 5,
				Factor: 5,
			}},
		}
		truth := gen.Medium(mediumCfg)
		a := grid.New(cfg.N, cfg.N)
		z, err := circuit.MeasureAll(a, truth)
		if err != nil {
			return nil, err
		}
		gen.AddNoise(z, cfg.Noise, seed^0xbeef)
		for mi, m := range methods {
			rec, err := m.run(a, z)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", m.name, err)
			}
			errsByMethod[mi] = append(errsByMethod[mi], fieldRelError(rec, truth))
		}
	}
	for mi, m := range methods {
		maxErr := 0.0
		for _, e := range errsByMethod[mi] {
			if e > maxErr {
				maxErr = e
			}
		}
		tbl.AddRow(m.name,
			fmt.Sprintf("%.3e", medianOf(errsByMethod[mi])),
			fmt.Sprintf("%.3e", maxErr))
	}
	return tbl, nil
}

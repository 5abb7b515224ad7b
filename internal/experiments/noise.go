package experiments

import (
	"context"
	"fmt"
	"math"

	"parma/internal/anomaly"
	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/solver"
)

// NoiseConfig drives the measurement-noise robustness study: the wet lab
// measures Z with finite precision, so recovery quality under perturbed
// measurements decides practical usability (the ill-posedness concern the
// paper raises about Landweber/Tikhonov-style inversions in §I).
type NoiseConfig struct {
	// N is the array size; zero selects 8.
	N int
	// Levels are relative noise standard deviations applied to Z; nil
	// selects {0, 1e-4, 1e-3, 1e-2}.
	Levels []float64
	// Trials averages each level over this many seeds; zero selects 3.
	Trials int
	// Seed bases the trial seeds.
	Seed int64
}

// NoiseSweep perturbs the measured Z matrix with multiplicative Gaussian
// noise at each level, recovers the resistance field, and reports the
// median relative field error and the anomaly-detection F1 against ground
// truth. Expected shape: graceful degradation — errors scale roughly
// linearly with noise, and detection survives noise levels well above
// measurement-grade precision.
func NoiseSweep(cfg NoiseConfig) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 8
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = []float64{0, 1e-4, 1e-3, 1e-2}
	}
	if cfg.Trials == 0 {
		cfg.Trials = 3
	}

	tbl := NewTable("noise_rel", "median_field_err", "median_f1", "converged")
	for _, level := range cfg.Levels {
		var errs, f1s []float64
		converged := 0
		for trial := 0; trial < cfg.Trials; trial++ {
			seed := cfg.Seed + int64(trial)*7919
			mediumCfg := gen.Config{
				Rows: cfg.N, Cols: cfg.N, Seed: seed,
				Anomalies: []gen.Anomaly{{
					CenterI: float64(cfg.N) / 2, CenterJ: float64(cfg.N) / 2,
					RadiusI: float64(cfg.N) / 5, RadiusJ: float64(cfg.N) / 5,
					Factor: 6,
				}},
			}
			truth := gen.Medium(mediumCfg)
			a := grid.New(cfg.N, cfg.N)
			z, err := circuit.MeasureAll(a, truth)
			if err != nil {
				return nil, err
			}
			gen.AddNoise(z, level, seed^0x5eed)
			rec, err := solver.Recover(context.Background(), a, z, solver.RecoverOptions{Tol: math.Max(level/10, 1e-10), MaxIter: 40})
			if err == nil {
				converged++
			}
			relErr := fieldRelError(rec.R, truth)
			errs = append(errs, relErr)

			det := anomaly.Detect(rec.R, anomaly.Options{Factor: 2.5})
			score, err := anomaly.Evaluate(det.Mask, gen.TruthMask(mediumCfg))
			if err != nil {
				return nil, err
			}
			f1s = append(f1s, score.F1())
		}
		tbl.AddRow(
			fmt.Sprintf("%.0e", level),
			fmt.Sprintf("%.3e", medianOf(errs)),
			fmt.Sprintf("%.3f", medianOf(f1s)),
			fmt.Sprintf("%d/%d", converged, cfg.Trials),
		)
	}
	return tbl, nil
}

func fieldRelError(got, want *grid.Field) float64 {
	var num, den float64
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			d := got.At(i, j) - want.At(i, j)
			num += d * d
			den += want.At(i, j) * want.At(i, j)
		}
	}
	return math.Sqrt(num / den)
}

func medianOf(vals []float64) float64 {
	cp := append([]float64(nil), vals...)
	for i := range cp {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] < cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
	}
	if len(cp) == 0 {
		return math.NaN()
	}
	return cp[len(cp)/2]
}

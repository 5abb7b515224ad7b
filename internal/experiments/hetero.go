package experiments

import (
	"fmt"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/mpi"
	"parma/internal/sched"
)

// Heterogeneous evaluates the paper's first future-work item — extending
// Parma to a cluster of heterogeneous nodes. For each rank count it builds
// a world whose ranks alternate between fast and slow (speed ratio
// SlowFactor), then compares two static partitioners:
//
//   - uniform: equal pair blocks per rank (the homogeneous §V-F scheme);
//   - weighted: blocks proportional to rank speed.
//
// Expected shape: on a heterogeneous cluster the uniform partition's
// makespan is pinned to the slow ranks (≈ SlowFactor× the weighted one),
// while speed-weighted partitioning restores near-homogeneous scaling.
type HeterogeneousConfig struct {
	// N is the array size; zero selects 50.
	N int
	// Ranks lists world sizes; nil selects {8, 32, 128}.
	Ranks []int
	// SlowFactor is how much slower odd ranks are; zero selects 4.
	SlowFactor float64
	// Seed drives the workload.
	Seed int64
}

// Heterogeneous measures the per-pair formation costs on this machine, runs
// the comparison on them and returns the series table.
func Heterogeneous(cfg HeterogeneousConfig) (*Table, error) {
	if cfg.N == 0 {
		cfg.N = 50
	}
	if len(cfg.Ranks) == 0 {
		cfg.Ranks = []int{8, 32, 128}
	}
	if cfg.SlowFactor == 0 {
		cfg.SlowFactor = 4
	}
	p, err := BuildProblem(cfg.N, cfg.Seed+int64(cfg.N))
	if err != nil {
		return nil, err
	}
	t := MeasureTasks(p)
	pairCost := make([]time.Duration, p.Array.Pairs())
	for task, c := range t.Cost {
		pairCost[task/len(kirchhoff.Categories)] += c
	}
	return heteroTable(pairCost, cfg.Ranks, cfg.SlowFactor)
}

// heteroTable runs the uniform/weighted comparison for each world size on
// the given per-pair costs. Everything downstream of the costs is the
// simulated MPI clock, so the table is a pure function of its arguments.
func heteroTable(pairCost []time.Duration, rankCounts []int, slowFactor float64) (*Table, error) {
	model := modelFor(PythonProfile)
	tbl := NewTable("ranks", "uniform_s", "weighted_s", "uniform/weighted")
	for _, ranks := range rankCounts {
		speeds := make([]float64, ranks)
		for r := range speeds {
			speeds[r] = 1
			if r%2 == 1 {
				speeds[r] = 1 / slowFactor
			}
		}
		uniform, err := heteroMakespan(pairCost, speeds, model, sched.StaticRanges(len(pairCost), ranks))
		if err != nil {
			return nil, err
		}
		weighted, err := heteroMakespan(pairCost, speeds, model, sched.WeightedRanges(len(pairCost), speeds))
		if err != nil {
			return nil, err
		}
		tbl.AddRow(ranks,
			fmt.Sprintf("%.6f", uniform),
			fmt.Sprintf("%.6f", weighted),
			fmt.Sprintf("%.2f", uniform/weighted))
	}
	return tbl, nil
}

// heteroMakespan runs the SPMD formation protocol on the in-process MPI
// world, one rank per pair range, charging each rank its pre-measured pair
// costs at its speed (nil speeds: a homogeneous world, as in Figure 10),
// and returns the modeled makespan in seconds.
func heteroMakespan(pairCost []time.Duration, speeds []float64, model mpi.CostModel, ranges []sched.Range) (float64, error) {
	world := mpi.NewWorld(len(ranges), model)
	if err := world.SetSpeeds(speeds); err != nil {
		return 0, err
	}
	times, errs := world.RunCollect(func(c *mpi.Comm) error {
		if err := c.Barrier(); err != nil {
			return err
		}
		r := ranges[c.Rank()]
		var local time.Duration
		for pair := r.Lo; pair < r.Hi; pair++ {
			local += pairCost[pair]
		}
		c.ChargeCompute(local)
		_, err := c.AllreduceSum([]float64{float64(r.Hi - r.Lo)})
		return err
	})
	if err := mpi.FirstError(errs); err != nil {
		return 0, err
	}
	return times.Makespan(), nil
}

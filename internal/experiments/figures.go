package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parma/internal/kirchhoff"
	"parma/internal/mpi"
	"parma/internal/parallel"
	"parma/internal/sched"
)

// Figure6 reproduces the strategy comparison: formation time of Parallel
// (4 category threads), Balanced Parallel (4 threads, LPT), and PyMP
// (fine-grained, k = max configured workers) across array sizes, with the
// Single-thread time as reference. Expected shape: Balanced wins at n = 10
// where PyMP's spawn overhead outweighs its speedup; PyMP wins for n ≥ 20.
func Figure6(cfg Config) (*Table, error) {
	prof := cfg.profile()
	kMax := cfg.workers()[len(cfg.workers())-1]
	tbl := NewTable("n", "single_thread_s", "parallel_s", "balanced_parallel_s",
		fmt.Sprintf("pymp_%d_s", kMax))
	for _, n := range cfg.sizes() {
		p, err := BuildProblem(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		t := MeasureTasks(p)
		tbl.AddRow(n,
			fmtSeconds(t.SerialTime()),
			fmtSeconds(t.FourWayTime(prof)),
			fmtSeconds(t.BalancedTime(prof, 4)),
			fmtSeconds(t.FineGrainedTime(prof, kMax)),
		)
	}
	return tbl, nil
}

// Figure7 reproduces the PyMP parallelism sweep: compute time (no I/O) for
// k ∈ Workers across array sizes. Expected shape: near-linear decrease in k
// for n ≥ 20; inconsistent at n = 10 where overhead rivals the work.
func Figure7(cfg Config) (*Table, error) {
	prof := cfg.profile()
	header := []string{"n", "single_thread_s"}
	for _, k := range cfg.workers() {
		header = append(header, fmt.Sprintf("pymp_%d_s", k))
	}
	tbl := NewTable(header...)
	for _, n := range cfg.sizes() {
		p, err := BuildProblem(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		t := MeasureTasks(p)
		row := []any{n, fmtSeconds(t.SerialTime())}
		for _, k := range cfg.workers() {
			row = append(row, fmtSeconds(t.FineGrainedTime(prof, k)))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// figure8Sizes caps the default sweep: Figure 8 retains the whole equation
// system in memory (that is the point of the measurement), and n = 100
// costs several gigabytes exactly as the paper reports (§V-D).
func (c Config) figure8Sizes() []int {
	if len(c.Sizes) > 0 {
		return c.Sizes
	}
	return []int{10, 20, 50}
}

// Figure8 reproduces the memory CDFs: heap usage sampled while forming and
// retaining the whole system at parallelism k. Reported per (n, k): the
// peak, quartiles of the sampled distribution, and the fraction of samples
// below half peak. Expected shape: peak memory is set by n and essentially
// independent of k.
func Figure8(cfg Config) (*Table, error) {
	tbl := NewTable("n", "k", "peak_mb", "p25_mb", "p50_mb", "p75_mb", "frac_below_half_peak")
	for _, n := range cfg.figure8Sizes() {
		for _, k := range cfg.workers() {
			p, err := BuildProblem(n, cfg.Seed+int64(n))
			if err != nil {
				return nil, err
			}
			sampler := NewMemSampler(500 * time.Microsecond)
			sampler.Start()
			// Form and retain the whole system, then drop it.
			parallel.FineGrained{}.Run(p, parallel.Options{Workers: k, Policy: sched.Dynamic, Collect: true})
			samples := sampler.Stop()
			cdf := NewCDF(samples)
			peak := cdf.Max()
			const mb = 1 << 20
			tbl.AddRow(n, k,
				peak/mb,
				cdf.Quantile(0.25)/mb,
				cdf.Quantile(0.50)/mb,
				cdf.Quantile(0.75)/mb,
				fmt.Sprintf("%.3f", cdf.P(peak/2)),
			)
		}
	}
	return tbl, nil
}

// Figure9 reproduces the end-to-end (compute + disk I/O) sweep: the system
// is formed and serialized to shard files; per-task costs include the
// write, and the k-way makespan is computed under the profile. Expected
// shape: larger k pays off from n ≥ 20 as I/O amortizes.
func Figure9(cfg Config) (*Table, error) {
	prof := cfg.profile()
	header := []string{"n", "single_thread_s", "bytes_written"}
	for _, k := range cfg.workers() {
		header = append(header, fmt.Sprintf("pymp_%d_s", k))
	}
	tbl := NewTable(header...)
	for _, n := range cfg.sizes() {
		p, err := BuildProblem(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		t, bytes, err := measureTasksWithIO(p)
		if err != nil {
			return nil, err
		}
		row := []any{n, fmtSeconds(t.SerialTime()), bytes}
		for _, k := range cfg.workers() {
			row = append(row, fmtSeconds(t.FineGrainedTime(prof, k)))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// Figure10 reproduces MPI strong scaling: the modeled makespan of
// distributed formation across rank counts and array sizes, under the
// cluster cost model. Expected shape: near-linear scaling for n ≥ 50,
// flat or inverse for n ≤ 20 where per-rank overhead dominates.
func Figure10(cfg Config) (*Table, error) {
	model := modelFor(cfg.profile())
	header := []string{"n", "serial_s"}
	for _, ranks := range cfg.ranks() {
		header = append(header, fmt.Sprintf("ranks_%d_s", ranks))
	}
	tbl := NewTable(header...)
	for _, n := range cfg.sizes() {
		p, err := BuildProblem(n, cfg.Seed+int64(n))
		if err != nil {
			return nil, err
		}
		t := MeasureTasks(p)
		// Collapse task costs to per-pair costs.
		pairCost := make([]time.Duration, p.Array.Pairs())
		for task, c := range t.Cost {
			pairCost[task/len(kirchhoff.Categories)] += c
		}
		row := []any{n, fmtSeconds(t.SerialTime())}
		for _, ranks := range cfg.ranks() {
			makespan, err := heteroMakespan(pairCost, nil, model, sched.StaticRanges(len(pairCost), ranks))
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.6f", makespan))
		}
		tbl.AddRow(row...)
	}
	return tbl, nil
}

// modelFor derives the cluster cost model from an execution profile.
func modelFor(p ExecProfile) mpi.CostModel {
	return mpi.CostModel{
		Latency:              2 * time.Microsecond,
		BandwidthBytesPerSec: 6e9,
		RankStartup:          p.ProcSpawn,
	}
}

// measureTasksWithIO measures per-task cost including serialization to a
// temporary shard file, returning the timing and total bytes written.
func measureTasksWithIO(p *kirchhoff.Problem) (*TaskTiming, int64, error) {
	dir, err := os.MkdirTemp("", "parma-fig9-*")
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: temp dir: %w", err)
	}
	defer os.RemoveAll(dir)
	f, err := os.Create(filepath.Join(dir, "equations.eq"))
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: create: %w", err)
	}
	defer f.Close()
	w := kirchhoff.NewWriter(f)

	nTasks := p.Array.Pairs() * len(kirchhoff.Categories)
	t := &TaskTiming{prob: p, Cost: make([]time.Duration, nTasks), Eqs: make([]int, nTasks)}
	cols := p.Array.Cols()
	var writeErr error
	for task := 0; task < nTasks; task++ {
		pair := task / len(kirchhoff.Categories)
		cat := kirchhoff.Categories[task%len(kirchhoff.Categories)]
		count := 0
		start := time.Now()
		p.FormCategory(pair/cols, pair%cols, cat, func(e kirchhoff.Equation) {
			if err := w.WriteEquation(e); err != nil && writeErr == nil {
				writeErr = err
			}
			count++
		})
		t.Cost[task] = time.Since(start)
		t.Eqs[task] = count
		t.Total += t.Cost[task]
	}
	if writeErr != nil {
		return nil, 0, fmt.Errorf("experiments: serialize: %w", writeErr)
	}
	if err := w.Flush(); err != nil {
		return nil, 0, fmt.Errorf("experiments: flush: %w", err)
	}
	return t, w.BytesWritten(), nil
}

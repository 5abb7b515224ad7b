package main

// metricDef names one metric of the benchmark. The two tables below are the
// source BENCHMARK.json is generated from (-manifest) and checked against
// (go test).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them, from the untraced run, and none is ever zero.
// One operation is a formation cycle (form-64), a recovery (recover-64), a
// served request (serve-mixed) or one medium's served series of four
// requests (serve-series).
//
// Every bound is the contract's maximum, and one bound covers a metric on
// all four workloads. The shared 2-vCPU VM this was sized on is slowed by
// neighbours on its cores' sibling hardware threads for minutes at a time:
// every workload then runs 20 to 50 % slower, in CPU time as much as in
// wall time, with no steal time reported (host.calib_ms sees it, and the
// run is printed as noisy). README.md has the measurements. A tighter bound
// would reject unchanged code whenever a set of runs straddles such a
// change, and run_seconds cannot grow: the driver's 92 runs must end within
// 3420 s.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "op_latency_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "cpu_s_per_op", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayerMetrics are reported by the traced run only and carry no bound.
var perLayerMetrics = []metricDef{
	// kirchhoff: equation formation and text serialization, serial.
	{Name: "kirchhoff.form_ns_per_eq", Unit: "ns", Better: lower},
	{Name: "kirchhoff.serialize_ns_per_eq", Unit: "ns", Better: lower},
	{Name: "kirchhoff.bytes_per_eq", Unit: "B", Better: lower},
	{Name: "kirchhoff.alloc_b_per_eq", Unit: "B", Better: lower},

	// parallel, sched: the paper's strategies (Fig. 6 ordering) and the pipeline.
	{Name: "parallel.serial_s", Unit: "s", Better: lower},
	{Name: "parallel.fourway_s", Unit: "s", Better: lower},
	{Name: "parallel.balanced_s", Unit: "s", Better: lower},
	{Name: "parallel.stealing_s", Unit: "s", Better: lower},
	{Name: "parallel.pymp_s", Unit: "s", Better: lower},
	{Name: "parallel.pymp_speedup", Unit: "ratio", Better: higher},
	{Name: "parallel.hash_equal", Unit: "count", Better: higher},
	{Name: "sched.static_s", Unit: "s", Better: lower},
	{Name: "sched.dynamic_s", Unit: "s", Better: lower},
	{Name: "sched.guided_s", Unit: "s", Better: lower},
	{Name: "parallel.pipeline_s", Unit: "s", Better: lower},
	{Name: "parallel.pipeline_speedup", Unit: "ratio", Better: higher},

	// mpi: four ranks on two cores, so counts and the simulated clock only.
	{Name: "mpi.msgs", Unit: "count", Better: lower},
	{Name: "mpi.bytes", Unit: "B", Better: lower},
	{Name: "mpi.sim_makespan_s", Unit: "s", Better: lower},

	// circuit: forward model.
	{Name: "circuit.factor64_ms", Unit: "ms", Better: lower},
	{Name: "circuit.factor32_ms", Unit: "ms", Better: lower},
	{Name: "circuit.measure_all64_ms", Unit: "ms", Better: lower},
	{Name: "circuit.measure_all32_ms", Unit: "ms", Better: lower},
	{Name: "circuit.sensitivity64_us", Unit: "us", Better: lower},

	// solver: Levenberg-Marquardt recovery.
	{Name: "solver.lm_iters", Unit: "count", Better: lower},
	{Name: "solver.cg_iters", Unit: "count", Better: lower},
	{Name: "solver.nnz", Unit: "count", Better: lower},
	{Name: "solver.cg_iters_per_lm", Unit: "ratio", Better: lower},
	{Name: "solver.factor_share", Unit: "ratio", Better: lower},
	{Name: "solver.recover64_s", Unit: "s", Better: lower},
	{Name: "solver.plan64_ms", Unit: "ms", Better: lower},
	{Name: "solver.serial_s", Unit: "s", Better: lower},
	{Name: "solver.par_speedup", Unit: "ratio", Better: higher},
	{Name: "solver.alloc_mb_per_op", Unit: "MB", Better: lower},
	{Name: "solver.cg_iters_n16", Unit: "count", Better: lower},
	{Name: "solver.cg_iters_n32", Unit: "count", Better: lower},
	{Name: "solver.rel_err_max", Unit: "ratio", Better: lower},
	{Name: "solver.dense12_ms", Unit: "ms", Better: lower},

	// sparse: kernels on the 64x64 cross-pattern probe system.
	{Name: "sparse.spmv_ns_per_nnz", Unit: "ns", Better: lower},
	{Name: "sparse.gather_ms", Unit: "ms", Better: lower},
	{Name: "sparse.normal_ms", Unit: "ms", Better: lower},
	{Name: "sparse.ic0_refresh_ms", Unit: "ms", Better: lower},
	{Name: "sparse.ic0_apply_us", Unit: "us", Better: lower},
	{Name: "sparse.cg_probe_iters", Unit: "count", Better: lower},
	{Name: "sparse.cg_probe_iters_jacobi", Unit: "count", Better: lower},
	{Name: "sparse.cg_ms_per_iter", Unit: "ms", Better: lower},

	// mat: dense kernels at 144 unknowns (the 12x12 dense recoveries).
	{Name: "mat.ata144_ms", Unit: "ms", Better: lower},
	{Name: "mat.cholesky144_ms", Unit: "ms", Better: lower},

	// serve: read from reply fields, /healthz and /proc. On the serve
	// workloads they describe the workload's own requests; elsewhere a
	// three-second serve-mixed run on a fresh fleet.
	{Name: "serve.queue_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.batch_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.factor_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.solve_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.total_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.http_ms_p50", Unit: "ms", Better: lower},
	{Name: "serve.batch_size_mean", Unit: "count", Better: higher},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.warm_hit_ratio", Unit: "ratio", Better: higher},
	{Name: "serve.warm_lm_iters_mean", Unit: "count", Better: lower},
	{Name: "serve.cold_lm_iters_mean", Unit: "count", Better: lower},
	{Name: "serve.shed", Unit: "count", Better: lower},
	{Name: "serve.degraded", Unit: "count", Better: lower},
	{Name: "serve.rss_mb", Unit: "MB", Better: lower},

	// fleet: the router hop.
	{Name: "fleet.hop_ms_p50", Unit: "ms", Better: lower},
	{Name: "fleet.hop_ms_p95", Unit: "ms", Better: lower},
	{Name: "fleet.owner_ratio", Unit: "ratio", Better: higher},
	{Name: "fleet.attempts_mean", Unit: "count", Better: lower},
	{Name: "fleet.hedged", Unit: "count", Better: lower},
	{Name: "fleet.shed", Unit: "count", Better: lower},
	{Name: "fleet.cpu_s_per_req", Unit: "s", Better: lower},
	{Name: "fleet.rss_mb", Unit: "MB", Better: lower},

	// Validity of the measurement itself.
	{Name: "loadgen.latency_ms_tail", Unit: "ms", Better: lower},
	{Name: "loadgen.latency_tail_pct", Unit: "count", Better: higher},
	{Name: "loadgen.late_ms_p95", Unit: "ms", Better: lower},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: lower},
	{Name: "host.steal_ratio", Unit: "ratio", Better: lower},
	{Name: "host.calib_ms", Unit: "ms", Better: lower},
	{Name: "host.membw_ms", Unit: "ms", Better: lower},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: lower},
	{Name: "bench.span_coverage", Unit: "ratio", Better: higher},
	{Name: "bench.unattributed_share", Unit: "ratio", Better: lower},
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

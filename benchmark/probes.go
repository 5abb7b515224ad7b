package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/kirchhoff"
	"parma/internal/mat"
	"parma/internal/mpi"
	"parma/internal/parallel"
	"parma/internal/sched"
	"parma/internal/solver"
	"parma/internal/sparse"
)

// The probe suite times each library layer's public functions on fixed,
// seeded inputs. It is the same in every traced run, whatever the workload,
// so a layer a workload bypasses still has a number beside it. Sizes are
// fixed here; quick mode shrinks them and marks the record non-comparable.
type probeSizes struct {
	form    int // formation strategies, serialization, pipeline, MPI
	big     int // the paper's device size: circuit, sparse and the counted recovery
	mid     int // second point of every n-sweep; serial-vs-parallel recovery
	small   int // first point of the CG-growth sweep
	dense   int // dense-backend recovery (auto picks dense at n <= 12)
	kernel  int // unknowns of the dense kernels: dense² = 144
	reps    int // passes per timed strategy; the median is reported
	repsFew int // repetitions of the costlier single calls
}

func probeSizesFor(quick bool) probeSizes {
	if quick {
		return probeSizes{form: 8, big: 16, mid: 12, small: 8, dense: 6, kernel: 36, reps: 1, repsFew: 1}
	}
	return probeSizes{form: 32, big: 64, mid: 32, small: 16, dense: 12, kernel: 144, reps: 5, repsFew: 5}
}

// timeMedian runs fn reps times and returns the median duration in seconds.
func timeMedian(reps int, fn func()) float64 {
	xs := make([]float64, reps)
	for i := range xs {
		t := time.Now()
		fn()
		xs[i] = time.Since(t).Seconds()
	}
	return median(xs)
}

// allocBytes returns the bytes fn allocates (cumulative, not live).
func allocBytes(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// spanned runs fn under a probe span so the traced run's timeline shows
// where the probe time went.
func spanned(rec *recorder, layer, name string, fn func()) {
	sp := rec.begin(layer, name, 0, -1, -1)
	fn()
	rec.end(sp)
}

// runProbes measures every library layer and adds its metrics to out.
func runProbes(cfg config, rec *recorder, out map[string]float64) error {
	sz := probeSizesFor(cfg.quick)
	workers := runtime.NumCPU()
	// One formation problem serves the kirchhoff, parallel and mpi probes.
	p, err := mediumProblem(sz.form, cfg.seed+10, 2)
	if err != nil {
		return err
	}
	step := func(layer, name string, fn func() error) {
		if err != nil {
			return
		}
		spanned(rec, layer, "probe "+name, func() {
			if e := fn(); e != nil {
				err = fmt.Errorf("probe %s: %w", name, e)
			}
		})
	}
	step("kirchhoff", "kirchhoff", func() error { return probeKirchhoff(p, sz, out) })
	step("parallel", "parallel+sched", func() error { return probeParallel(p, sz, workers, out) })
	step("mpi", "mpi", func() error { return probeMPI(p, out) })
	step("circuit", "circuit", func() error { return probeCircuit(cfg, sz, out) })
	step("sparse", "sparse", func() error { return probeSparse(cfg, sz, out) })
	step("mat", "mat", func() error { return probeMat(sz, out) })
	step("solver", "solver", func() error { return probeSolver(cfg, sz, out) })
	return err
}

func probeKirchhoff(p *kirchhoff.Problem, sz probeSizes, out map[string]float64) error {
	n := sz.form
	eqs := float64(2 * n * n * n)
	formAll := func() {
		for pair := 0; pair < p.Array.Pairs(); pair++ {
			p.FormPair(pair/n, pair%n, func(kirchhoff.Equation) {})
		}
	}
	out["kirchhoff.form_ns_per_eq"] = timeMedian(sz.reps, formAll) * 1e9 / eqs
	out["kirchhoff.alloc_b_per_eq"] = allocBytes(formAll) / eqs

	system := p.FormAll()
	var bytes int64
	var werr error
	out["kirchhoff.serialize_ns_per_eq"] = timeMedian(sz.reps, func() {
		bytes, werr = kirchhoff.WriteSystem(&countingSink{}, system)
	}) * 1e9 / eqs
	if werr != nil {
		return werr
	}
	out["kirchhoff.bytes_per_eq"] = float64(bytes) / eqs
	return nil
}

func probeParallel(p *kirchhoff.Problem, sz probeSizes, workers int, out map[string]float64) error {
	want := parallel.Serial{}.Run(p, parallel.Options{})
	equal := 1.0
	timed := func(s parallel.Strategy, opts parallel.Options) float64 {
		return timeMedian(sz.reps, func() {
			if r := s.Run(p, opts); r.Hash != want.Hash || r.Count != want.Count {
				equal = 0
			}
		})
	}
	opts := parallel.Options{Workers: workers}
	out["parallel.serial_s"] = timed(parallel.Serial{}, opts)
	out["parallel.fourway_s"] = timed(parallel.FourWay{}, opts)
	out["parallel.balanced_s"] = timed(parallel.Balanced{}, opts)
	out["parallel.stealing_s"] = timed(parallel.Stealing{}, opts)
	out["parallel.pymp_s"] = timed(parallel.FineGrained{}, opts)
	out["parallel.pymp_speedup"] = out["parallel.serial_s"] / out["parallel.pymp_s"]
	for _, pol := range []sched.Policy{sched.Static, sched.Dynamic, sched.Guided} {
		out["sched."+pol.String()+"_s"] = timed(parallel.FineGrained{}, parallel.Options{Workers: workers, Policy: pol})
	}
	out["parallel.hash_equal"] = equal

	// Pipeline: overlapped form+serialize against the same work done serially.
	var perr error
	serial := timeMedian(sz.reps, func() {
		if _, err := serialStream(p); err != nil && perr == nil {
			perr = err
		}
	})
	out["parallel.pipeline_s"] = timeMedian(sz.reps, func() {
		if _, err := parallel.WritePipelined(p, &countingSink{}, workers); err != nil && perr == nil {
			perr = err
		}
	})
	out["parallel.pipeline_speedup"] = serial / out["parallel.pipeline_s"]
	return perr
}

func probeMPI(p *kirchhoff.Problem, out map[string]float64) error {
	// Four ranks on two cores: more ranks than cores, so only the message
	// counts and the cost model's simulated makespan are reported.
	world := mpi.NewWorld(4, mpi.FDRInfiniBand)
	stats := make([]mpi.CommStats, world.Size())
	times, errs := world.RunCollect(func(c *mpi.Comm) error {
		_, err := mpi.DistributedFormation(c, p)
		stats[c.Rank()] = c.Stats()
		return err
	})
	if err := mpi.FirstError(errs); err != nil {
		return err
	}
	var msgs, bytes int64
	for _, s := range stats {
		msgs += s.MsgsSent
		bytes += s.BytesSent
	}
	out["mpi.msgs"] = float64(msgs)
	out["mpi.bytes"] = float64(bytes)
	out["mpi.sim_makespan_s"] = times.Makespan()
	return nil
}

func probeCircuit(cfg config, sz probeSizes, out map[string]float64) error {
	// Metric names keep the full sizes even when quick mode shrinks them.
	for _, at := range []struct {
		n     int
		label string
	}{{sz.big, "64"}, {sz.mid, "32"}} {
		n := at.n
		md, err := newMedium(n, n, cfg.seed+20, 1)
		if err != nil {
			return err
		}
		var fwd *circuit.Solver
		var ferr error
		out["circuit.factor"+at.label+"_ms"] = 1e3 * timeMedian(sz.repsFew, func() {
			fwd, ferr = circuit.NewSolver(md.arr, md.r)
		})
		if ferr != nil {
			return ferr
		}
		out["circuit.measure_all"+at.label+"_ms"] = 1e3 * timeMedian(sz.repsFew, func() {
			_, ferr = circuit.MeasureAll(md.arr, md.r)
		})
		if ferr != nil {
			return ferr
		}
		if n == sz.big {
			pairs := 4 * n
			out["circuit.sensitivity64_us"] = 1e6 * timeMedian(sz.repsFew, func() {
				for k := 0; k < pairs; k++ {
					fwd.Sensitivity(k%n, (k*7)%n, md.r)
				}
			}) / float64(pairs)
		}
	}
	return nil
}

// probeSparse times the sparse kernels on a probe system built from public
// functions only: the cross-pattern Jacobian of the big array at the
// uniform-background linearization, its pattern-restricted normal matrix,
// and that matrix shifted by 1e-3 × its mean diagonal.
func probeSparse(cfg config, sz probeSizes, out map[string]float64) error {
	n := sz.big
	arr := grid.NewSquare(n)
	u := n * n
	bg := grid.UniformField(n, n, 6500) // middle of the paper's 2,000–11,000 kΩ background
	fwd, err := circuit.NewSolver(arr, bg)
	if err != nil {
		return err
	}
	// Cross pattern: row (p,q) holds the unknowns in grid row p or column q.
	rowPtr := make([]int, u+1)
	colIdx := make([]int, 0, u*(2*n-1))
	for pq := 0; pq < u; pq++ {
		p, q := pq/n, pq%n
		for k := 0; k < n; k++ {
			if k == p {
				for l := 0; l < n; l++ {
					colIdx = append(colIdx, p*n+l)
				}
			} else {
				colIdx = append(colIdx, k*n+q)
			}
		}
		rowPtr[pq+1] = len(colIdx)
	}
	j := sparse.FromPattern(u, u, rowPtr, colIdx)
	for pq := 0; pq < u; pq++ {
		sens := fwd.Sensitivity(pq/n, pq%n, bg).Values()
		cols, vals := j.RowVals(pq)
		for s, c := range cols {
			vals[s] = sens[c]
		}
	}
	nnz := float64(j.NNZ())
	x, y := mat.NewVector(u), mat.NewVector(u)
	for i := range x {
		x[i] = 1 + float64(i%7)
	}
	out["sparse.spmv_ns_per_nnz"] = 1e9 * timeMedian(4*sz.repsFew, func() { j.MulVecTo(y, x) }) / nnz

	jt, perm := j.TransposePlan()
	out["sparse.gather_ms"] = 1e3 * timeMedian(4*sz.repsFew, func() { sparse.Gather(jt.Values(), j.Values(), perm) })
	normal := sparse.FromPattern(u, u, rowPtr, colIdx)
	out["sparse.normal_ms"] = 1e3 * timeMedian(sz.repsFew, func() { sparse.NormalInto(normal, jt) })

	diag := normal.Diagonal()
	shift := mat.NewVector(u)
	shift.Fill(1e-3 * mean(diag))
	ic, err := sparse.NewIC0(normal)
	if err != nil {
		return err
	}
	var rerr error
	out["sparse.ic0_refresh_ms"] = 1e3 * timeMedian(sz.repsFew, func() { rerr = ic.Refresh(normal, shift) })
	if rerr != nil {
		return rerr
	}
	out["sparse.ic0_apply_us"] = 1e6 * timeMedian(4*sz.repsFew, func() { ic.Precondition(y, x) })

	op := normalOp{j: j, jt: jt, shift: shift, tmp: mat.NewVector(u)}
	var ws sparse.Workspace
	t := time.Now()
	_, st, err := sparse.CGOp(context.Background(), &ws, op, x, ic, sparse.CGOptions{Tol: 1e-10})
	if err != nil {
		return fmt.Errorf("IC(0) CG: %w", err)
	}
	out["sparse.cg_probe_iters"] = float64(st.Iterations)
	out["sparse.cg_ms_per_iter"] = 1e3 * time.Since(t).Seconds() / float64(st.Iterations)
	inv := mat.NewVector(u)
	for i := range diag {
		diag[i] += shift[i]
	}
	sparse.InvertDiagonal(inv, diag)
	_, st, err = sparse.CGOp(context.Background(), &ws, op, x, sparse.Jacobi{InvDiag: inv}, sparse.CGOptions{Tol: 1e-10})
	if err != nil {
		return fmt.Errorf("Jacobi CG: %w", err)
	}
	out["sparse.cg_probe_iters_jacobi"] = float64(st.Iterations)
	return nil
}

// normalOp applies JᵀJ + diag(shift) matrix-free, as the solver's sparse
// step does: two SpMVs and a diagonal shift.
type normalOp struct {
	j, jt *sparse.CSR
	shift mat.Vector
	tmp   mat.Vector
}

func (o normalOp) Dim() int { return o.j.Cols() }
func (o normalOp) Apply(dst, x mat.Vector) {
	o.j.MulVecTo(o.tmp, x)
	o.jt.MulVecTo(dst, o.tmp)
	for i := range dst {
		dst[i] += o.shift[i] * x[i]
	}
}

func probeMat(sz probeSizes, out map[string]float64) error {
	k := sz.kernel
	a := mat.NewMatrix(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			a.Set(i, j, 1/float64(1+i+j)+float64((i*31+j*17)%11)/11)
		}
	}
	ata := mat.NewMatrix(k, k)
	out["mat.ata144_ms"] = 1e3 * timeMedian(4*sz.repsFew, func() { a.ATAInto(ata) })
	spd := mat.NewMatrix(k, k)
	var cerr error
	out["mat.cholesky144_ms"] = 1e3 * timeMedian(4*sz.repsFew, func() {
		spd.CopyFrom(ata)
		for i := 0; i < k; i++ {
			spd.Add(i, i, 1) // keep the factorization away from breakdown
		}
		_, cerr = mat.CholeskyInPlace(spd)
	})
	return cerr
}

// solverCounted is how many 64×64 recoveries the exact solver counts are
// summed over.
const solverCounted = 2

func probeSolver(cfg config, sz probeSizes, out map[string]float64) error {
	// Every probe recovery is cold, checked like a workload's, and timed
	// without its input generation.
	var err error
	recoverOnce := func(n int, seed int64, opts solver.RecoverOptions) (res solver.RecoverResult, wall float64, relErr float64, err error) {
		md, err := newMedium(n, n, seed, 1)
		if err != nil {
			return res, 0, 0, err
		}
		t := time.Now()
		res, err = solver.Recover(context.Background(), md.arr, md.z, opts)
		wall = time.Since(t).Seconds()
		if err != nil {
			return res, wall, 0, fmt.Errorf("%dx%d recovery: %w", n, n, err)
		}
		if err := checkRecovery(res, md.r); err != nil {
			return res, wall, 0, fmt.Errorf("%dx%d recovery: %w", n, n, err)
		}
		return res, wall, maxRelErr(res.R, md.r), nil
	}

	out["solver.plan64_ms"] = 1e3 * timeMedian(sz.repsFew, func() { solver.NewPlan(sz.big, sz.big) })

	// The counted recoveries: the first solverCounted media of the seed's
	// recover-64 pool, whatever the workload and however many recoveries its
	// time box held, so the sums repeat exactly.
	var lm, cg, nnz, factorS, wallS, relErrMax float64
	alloc := allocBytes(func() {
		for k := 0; k < solverCounted; k++ {
			res, wall, relErr, e := recoverOnce(sz.big, cfg.seed+int64(k), solver.RecoverOptions{})
			if e != nil {
				err = e
				return
			}
			lm += float64(res.Iterations)
			cg += float64(res.CGIterations)
			nnz += float64(res.NNZ)
			factorS += res.FactorTime.Seconds()
			wallS += wall
			relErrMax = math.Max(relErrMax, relErr)
		}
	})
	if err != nil {
		return err
	}
	out["solver.lm_iters"] = lm
	out["solver.cg_iters"] = cg
	out["solver.nnz"] = nnz
	out["solver.cg_iters_per_lm"] = cg / math.Max(1, lm)
	out["solver.factor_share"] = factorS / wallS
	out["solver.alloc_mb_per_op"] = alloc / 1e6 / solverCounted
	out["solver.rel_err_max"] = relErrMax
	out["solver.recover64_s"] = wallS / solverCounted

	// Serial baseline and kernel-parallel speed-up, at the mid size so the
	// pair costs well under a second.
	sparseOpts := solver.RecoverOptions{Method: solver.MethodSparse}
	res, par, _, err := recoverOnce(sz.mid, cfg.seed, sparseOpts)
	if err != nil {
		return err
	}
	out["solver.cg_iters_n32"] = float64(res.CGIterations)
	prev := mat.Parallelism(1)
	_, serial, _, err := recoverOnce(sz.mid, cfg.seed, sparseOpts)
	mat.Parallelism(prev)
	if err != nil {
		return err
	}
	out["solver.serial_s"] = serial
	out["solver.par_speedup"] = serial / par

	if res, _, _, err = recoverOnce(sz.small, cfg.seed, sparseOpts); err != nil {
		return err
	}
	out["solver.cg_iters_n16"] = float64(res.CGIterations)

	dense := make([]float64, sz.repsFew)
	for i := range dense {
		if _, dense[i], _, err = recoverOnce(sz.dense, cfg.seed, solver.RecoverOptions{Method: solver.MethodDense}); err != nil {
			return err
		}
	}
	out["solver.dense12_ms"] = 1e3 * median(dense)
	return nil
}

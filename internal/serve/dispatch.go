package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"parma/internal/grid"
	"parma/internal/kirchhoff"
	"parma/internal/mpi"
	"parma/internal/obs"
	"parma/internal/solver"
)

// taskKind distinguishes the two compute endpoints.
type taskKind uint8

const (
	kindRecover taskKind = iota
	kindMeasure
)

func (k taskKind) String() string {
	if k == kindRecover {
		return "recover"
	}
	return "measure"
}

// task is one admitted request travelling queue → bucket → worker.
type task struct {
	kind taskKind
	// key groups batch-compatible tasks: same kind, geometry, and solver
	// options. Only same-key tasks share a batch (and therefore warm-start
	// and factorization locality).
	key     string
	ctx     context.Context
	arr     grid.Array
	field   *grid.Field // Z for recover, R for measure
	tol     float64
	maxIter int
	warm    bool
	enq     time.Time
	deq     time.Time       // set by the dispatcher when the task leaves the intake queue
	run     time.Time       // set by the worker when execution starts
	done    chan taskResult // buffered(1): workers never block on a gone handler

	// Stage spans attribute pipeline latency inside the request's trace:
	// queueSpan covers admission → dispatcher dequeue, batchSpan covers the
	// batching-window wait until a worker starts the task. Each is written
	// strictly before the task crosses the channel to the goroutine that
	// ends it, so the channel send orders the handoff.
	queueSpan obs.Span
	batchSpan obs.Span
}

// taskResult is the worker's reply to the handler.
type taskResult struct {
	field      *grid.Field // recovered R or measured Z
	iterations int
	residual   float64
	cacheHit   bool
	batchSize  int
	queued     time.Duration
	solve      time.Duration
	factor     time.Duration // Laplacian factorization share of solve
	timings    *Timings      // stage attribution; nil when the task never ran
	status     int           // HTTP status when err != nil
	err        error
}

// ms converts a duration to float milliseconds without truncating
// sub-millisecond stages to zero.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *task) finish(res taskResult) {
	res.queued = time.Since(t.enq) - res.solve
	if !t.run.IsZero() {
		deq := t.deq
		if deq.IsZero() {
			deq = t.run
		}
		solve := res.solve - res.factor
		if solve < 0 {
			solve = 0
		}
		res.timings = &Timings{
			QueueMS:  ms(deq.Sub(t.enq)),
			BatchMS:  ms(t.run.Sub(deq)),
			FactorMS: ms(res.factor),
			SolveMS:  ms(solve),
			TotalMS:  ms(time.Since(t.enq)),
		}
		obs.Observe("serve/stage/queue_ms", res.timings.QueueMS)
		obs.Observe("serve/stage/batch_ms", res.timings.BatchMS)
		obs.Observe("serve/stage/factor_ms", res.timings.FactorMS)
		obs.Observe("serve/stage/solve_ms", res.timings.SolveMS)
	}
	t.done <- res
}

// batchKey canonicalizes the grouping key.
func batchKey(kind taskKind, a grid.Array, tol float64, maxIter int) string {
	return fmt.Sprintf("%s|%s|tol=%g|iter=%d", kind, geomKey(a), tol, maxIter)
}

// bucket accumulates same-key tasks until flushed by size or window.
type bucket struct {
	tasks   []*task
	flushAt time.Time
}

// dispatch is the batching loop: it drains the intake channel into per-key
// buckets and flushes each bucket to the worker pool when it reaches
// MaxBatch or its batching window expires. When intake closes (drain), all
// buckets flush and the work channel closes behind them, so every admitted
// task reaches a worker.
func (s *Server) dispatch() {
	defer close(s.work)
	buckets := map[string]*bucket{}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()

	flush := func(key string) {
		b := buckets[key]
		delete(buckets, key)
		obs.Observe("serve/batch_size", float64(len(b.tasks)))
		s.work <- b.tasks
	}
	flushExpired := func(now time.Time) {
		for key, b := range buckets {
			if !b.flushAt.After(now) {
				flush(key)
			}
		}
	}
	for {
		// Arm the timer for the nearest pending flush.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		next := time.Duration(-1)
		for _, b := range buckets {
			d := time.Until(b.flushAt)
			if d < 0 {
				// Already expired (e.g. the loop was busy flushing another
				// bucket past this one's window): fire immediately.
				d = 0
			}
			if next < 0 || d < next {
				next = d
			}
		}
		var timerC <-chan time.Time
		if next >= 0 {
			timer.Reset(next)
			timerC = timer.C
		}

		select {
		case t, ok := <-s.intake:
			if !ok {
				for key := range buckets {
					flush(key)
				}
				return
			}
			t.deq = time.Now()
			t.queueSpan.End()
			t.batchSpan = obs.StartSpanIn(t.ctx, "serve/batchwait")
			b := buckets[t.key]
			if b == nil {
				b = &bucket{flushAt: time.Now().Add(s.cfg.BatchWindow)}
				buckets[t.key] = b
			}
			b.tasks = append(b.tasks, t)
			if len(b.tasks) >= s.cfg.MaxBatch {
				flush(t.key)
			}
		case now := <-timerC:
			flushExpired(now)
		}
	}
}

// worker executes batches until the work channel closes.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for batch := range s.work {
		sp := obs.StartSpan("serve/batch")
		for _, t := range batch {
			s.runTask(t, len(batch))
		}
		sp.End(obs.I("size", len(batch)), obs.S("key", batch[0].key))
	}
}

// runTask executes one admitted task and always delivers exactly one
// result (the queue-depth decrement lives in finish's caller, admitDone).
func (s *Server) runTask(t *task, batchSize int) {
	defer s.admitDone()
	t.batchSpan.End(obs.I("batch", batchSize))
	obs.Observe("serve/queue_wait_ms", float64(time.Since(t.enq).Milliseconds()))
	if err := t.ctx.Err(); err != nil {
		obs.Add("serve/abandoned_in_queue", 1)
		t.finish(taskResult{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("abandoned while queued: %w", err), batchSize: batchSize})
		return
	}
	t.run = time.Now()
	s.running.Add(1)
	defer s.running.Add(-1)
	var res taskResult
	switch t.kind {
	case kindRecover:
		res = s.runRecover(t)
	case kindMeasure:
		res = s.runMeasure(t)
	}
	res.batchSize = batchSize
	res.solve = time.Since(t.run)
	obs.Observe("serve/latency_"+t.kind.String()+"_ms", float64(time.Since(t.enq).Milliseconds()))
	if obs.Enabled() {
		// Per-geometry-keyspace RED: the same rate/error/duration triple the
		// endpoints export, cut by geometry so a single hot keyspace is
		// visible. Guarded so the disabled hot path never concatenates names.
		gk := geomKey(t.arr)
		obs.Add("serve/red/geom/"+gk+"/requests", 1)
		if res.err != nil {
			obs.Add("serve/red/geom/"+gk+"/errors", 1)
		}
		obs.Observe("serve/red/geom/"+gk+"/latency_ms", ms(time.Since(t.enq)))
	}
	t.finish(res)
}

// runRecover performs a cancellable LM recovery, warm-started from the
// cache when allowed. A warm start that diverges falls back to one cold
// retry: a stale seed from different traffic must not fail a request the
// cold path would have served.
func (s *Server) runRecover(t *task) taskResult {
	ctx, sp := obs.StartSpanCtx(t.ctx, "serve/recover")
	defer sp.End(obs.S("key", t.key))
	if s.cfg.ValidateRanks > 0 {
		if err := s.validateFormation(ctx, t); err != nil {
			return taskResult{status: http.StatusInternalServerError,
				err: fmt.Errorf("rank validation failed: %w", err)}
		}
	}
	opts := solver.RecoverOptions{Tol: t.tol, MaxIter: t.maxIter}
	warmUsed := false
	if t.warm {
		if w, ok := s.cache.WarmStart(t.arr); ok {
			opts.Initial = w
			warmUsed = true
		}
	}
	res, err := solver.Recover(ctx, t.arr, t.field, opts)
	factor := res.FactorTime
	if err != nil && warmUsed && errors.Is(err, solver.ErrDiverged) {
		obs.Add("serve/warm_retries", 1)
		opts.Initial = nil
		res, err = solver.Recover(ctx, t.arr, t.field, opts)
		factor += res.FactorTime
	}
	if err != nil {
		if errors.Is(err, solver.ErrCanceled) {
			return taskResult{status: http.StatusServiceUnavailable, factor: factor,
				err: fmt.Errorf("recovery cancelled: %w", err)}
		}
		return taskResult{status: http.StatusUnprocessableEntity, factor: factor,
			err: fmt.Errorf("recovery failed: %w", err)}
	}
	s.cache.StoreWarmStart(t.arr, res.R)
	return taskResult{field: res.R, iterations: res.Iterations,
		residual: res.Residual, cacheHit: warmUsed, factor: factor}
}

// validateFormation cross-checks the request geometry's equation census
// against an actual distributed formation across cfg.ValidateRanks
// in-process MPI ranks. It runs under the request's context, so every
// rank's spans parent into the request trace — this is the paranoia knob
// for deployments that want each recovery's constraint system witnessed by
// the parallel formation path, and the natural producer of cross-rank
// traces for parma tracecheck -distributed.
func (s *Server) validateFormation(ctx context.Context, t *task) error {
	p, err := kirchhoff.NewProblem(t.arr, t.field, validateSourceU)
	if err != nil {
		return fmt.Errorf("building validation problem: %w", err)
	}
	want := kirchhoff.SystemCensus(t.arr).Equations
	totals := make([]int, s.cfg.ValidateRanks)
	errs := mpi.NewWorld(s.cfg.ValidateRanks, mpi.CostModel{}).RunCtx(ctx,
		func(_ context.Context, c *mpi.Comm) error {
			fr, err := mpi.DistributedFormation(c, p)
			if err != nil {
				return err
			}
			totals[c.Rank()] = fr.TotalEquations
			return nil
		})
	if err := mpi.FirstError(errs); err != nil {
		return fmt.Errorf("distributed formation: %w", err)
	}
	for r, total := range totals {
		if total != want {
			return fmt.Errorf("rank %d saw %d equations, census says %d", r, total, want)
		}
	}
	return nil
}

// validateSourceU is the applied voltage for validation formations (the
// paper's 5 V); the equation count being checked is voltage-independent.
const validateSourceU = 5

// runMeasure runs the forward simulator over a (possibly cached)
// factorization, honouring cancellation between rows.
func (s *Server) runMeasure(t *task) taskResult {
	sp := obs.StartSpanIn(t.ctx, "serve/measure")
	defer sp.End(obs.S("key", t.key))
	f0 := time.Now()
	sol, hit, err := s.cache.Solver(t.arr, t.field)
	factor := time.Since(f0)
	if err != nil {
		return taskResult{status: http.StatusUnprocessableEntity, factor: factor,
			err: fmt.Errorf("forward model rejected the field: %w", err)}
	}
	z := grid.NewFieldFor(t.arr)
	for i := 0; i < t.arr.Rows(); i++ {
		if err := t.ctx.Err(); err != nil {
			return taskResult{status: http.StatusServiceUnavailable, factor: factor,
				err: fmt.Errorf("measurement cancelled: %w", err)}
		}
		for j := 0; j < t.arr.Cols(); j++ {
			z.Set(i, j, sol.EffectiveResistance(i, j))
		}
	}
	s.cache.StoreLastZ(t.arr, z)
	return taskResult{field: z, cacheHit: hit, factor: factor}
}

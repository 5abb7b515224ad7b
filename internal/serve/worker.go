package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"parma/internal/grid"
	"parma/internal/obs"
	"parma/internal/solver"
)

// taskKind distinguishes the two compute endpoints.
type taskKind uint8

const (
	kindRecover taskKind = iota
	kindMeasure
)

// task is one admitted request travelling intake → worker.
type task struct {
	kind    taskKind
	ctx     context.Context
	arr     grid.Array
	field   *grid.Field // Z for recover, R for measure
	tol     float64
	maxIter int
	warm    bool
	enq     time.Time
	run     time.Time       // set by the worker when execution starts
	done    chan taskResult // buffered(1): workers never block on a gone handler

	// queueSpan attributes admission → worker pickup inside the request's
	// trace. It is written strictly before the task crosses the intake
	// channel to the worker that ends it, so the channel send orders the
	// handoff.
	queueSpan obs.Span
}

// taskResult is the worker's reply to the handler.
type taskResult struct {
	field      *grid.Field // recovered R or measured Z
	iterations int
	residual   float64
	cacheHit   bool
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
		solve := res.solve - res.factor
		if solve < 0 {
			solve = 0
		}
		res.timings = &Timings{
			QueueMS:  ms(t.run.Sub(t.enq)),
			FactorMS: ms(res.factor),
			SolveMS:  ms(solve),
			TotalMS:  ms(time.Since(t.enq)),
		}
		obs.Observe("serve/stage/queue_ms", res.timings.QueueMS)
		obs.Observe("serve/stage/factor_ms", res.timings.FactorMS)
		obs.Observe("serve/stage/solve_ms", res.timings.SolveMS)
	}
	t.done <- res
}

// worker runs admitted tasks in admission order until Drain closes the
// intake and the queue runs dry.
func (s *Server) worker() {
	defer s.workersWG.Done()
	for t := range s.intake {
		t.queueSpan.End()
		if s.beforeRun != nil {
			s.beforeRun(t)
		}
		s.runTask(t)
	}
}

// runTask executes one admitted task and always delivers exactly one
// result. The task leaves the in-flight count and frees its queue slot
// before the result is delivered, so a client holding its reply never
// meets its own finished request in /healthz or in admission.
func (s *Server) runTask(t *task) {
	if err := t.ctx.Err(); err != nil {
		obs.Add("serve/abandoned_in_queue", 1)
		s.admitDone()
		t.finish(taskResult{status: http.StatusServiceUnavailable,
			err: fmt.Errorf("abandoned while queued: %w", err)})
		return
	}
	t.run = time.Now()
	s.running.Add(1)
	var res taskResult
	switch t.kind {
	case kindRecover:
		res = s.runRecover(t)
	case kindMeasure:
		res = s.runMeasure(t)
	}
	res.solve = time.Since(t.run)
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
	s.running.Add(-1)
	s.admitDone()
	t.finish(res)
}

// runRecover performs a cancellable LM recovery, warm-started from the
// cache when allowed. A warm start that diverges falls back to one cold
// retry: a stale seed from different traffic must not fail a request the
// cold path would have served.
func (s *Server) runRecover(t *task) taskResult {
	ctx, sp := obs.StartSpanCtx(t.ctx, "serve/recover")
	defer sp.End(obs.S("key", geomKey(t.arr)))
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

// runMeasure runs the forward simulator over a (possibly cached)
// factorization, honouring cancellation between rows.
func (s *Server) runMeasure(t *task) taskResult {
	sp := obs.StartSpanIn(t.ctx, "serve/measure")
	defer sp.End(obs.S("key", geomKey(t.arr)))
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

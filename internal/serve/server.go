package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parma/internal/grid"
	"parma/internal/mat"
	"parma/internal/obs"
)

// Config tunes the serving pipeline. The zero value of every field selects
// a sensible default, so Config{} is a working configuration.
type Config struct {
	// Workers is the compute pool size; zero selects GOMAXPROCS. NewServer
	// divides GOMAXPROCS between this request-level pool and the solver
	// kernel pool (mat.Parallelism), so Workers × kernel-parallelism never
	// oversubscribes the machine: many workers mean serial kernels, few
	// workers let each request's kernels fan wide.
	Workers int
	// QueueDepth bounds admitted-but-unfinished requests; past it new
	// requests get 429. Zero selects 64.
	QueueDepth int
	// CacheEntries bounds the factorization/warm-start LRU. Zero selects 128.
	CacheEntries int
	// DefaultDeadline applies to requests that do not set deadline_ms.
	// Zero selects 30s.
	DefaultDeadline time.Duration
	// MaxDim rejects geometries larger than MaxDim per side. Zero selects 64.
	MaxDim int
	// RetryAfter is the backoff hint attached (as a Retry-After header) to
	// shed requests: 429 backpressure, 503 drain/deadline sheds, and open
	// circuit breakers. Zero selects 1s.
	RetryAfter time.Duration
	// BreakerThreshold is how many consecutive saturation-class failures
	// (deadline exceeded, cancellation under load) open a geometry
	// keyspace's circuit breaker. Zero selects 5.
	BreakerThreshold int
	// BreakerOpenFor is how long an open breaker sheds (or serves stale)
	// before letting a half-open probe through. Zero selects 5s.
	BreakerOpenFor time.Duration
	// EnablePprof mounts /debug/pprof/* on the handler.
	EnablePprof bool
	// Recorder, when set, is served by GET /metrics. (Installing it as the
	// global obs recorder is the caller's choice; see cmd/parmad.)
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDim <= 0 {
		c.MaxDim = 64
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 5 * time.Second
	}
	return c
}

// Errors surfaced by admission control.
var (
	// ErrQueueFull reports admission rejected for backpressure (HTTP 429).
	ErrQueueFull = errors.New("serve: admission queue is full")
	// ErrDraining reports the server is shutting down (HTTP 503).
	ErrDraining = errors.New("serve: server is draining")
)

// Server is the MEA-recovery service: admission queue, worker pool, and
// factorization cache behind an HTTP handler. Workers take admitted tasks
// straight off the queue in admission order. Create with NewServer, serve
// via Handler, stop with Drain.
type Server struct {
	cfg      Config
	cache    *FactorCache
	breakers *BreakerSet
	start    time.Time

	intake chan *task

	admitMu  sync.RWMutex
	draining bool
	depth    atomic.Int64
	// running counts tasks a worker is actively executing right now, as
	// opposed to depth, which also includes tasks still queued. Both are
	// exported through /healthz so a fleet router's bounded-load spill can
	// read live load without scraping and parsing the full Prometheus
	// exposition.
	running atomic.Int64

	workersWG sync.WaitGroup

	// beforeRun, when set, is called by a worker just before it runs a
	// task. It is nil in production; in-package tests set it before the
	// first request to hold the queue at capacity deterministically.
	beforeRun func(*task)
}

// NewServer builds the pipeline and starts its workers. It also splits the
// machine between the two parallelism levels: the kernel pool
// (internal/mat) gets GOMAXPROCS/Workers goroutines per solve, so a fully
// busy worker pool lands on GOMAXPROCS total runnable goroutines instead of
// Workers × GOMAXPROCS.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	kernelPar := runtime.GOMAXPROCS(0) / cfg.Workers
	if kernelPar < 1 {
		kernelPar = 1
	}
	mat.Parallelism(kernelPar)
	s := &Server{
		cfg:      cfg,
		cache:    NewFactorCache(cfg.CacheEntries),
		breakers: NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerOpenFor, "serve"),
		start:    time.Now(),
		intake:   make(chan *task, cfg.QueueDepth),
	}
	s.workersWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Cache exposes the factorization cache (for stats and tests).
func (s *Server) Cache() *FactorCache { return s.cache }

// QueueDepth returns the number of admitted, unfinished requests.
func (s *Server) QueueDepth() int64 { return s.depth.Load() }

// InFlight returns the number of requests a worker is executing right now.
func (s *Server) InFlight() int64 { return s.running.Load() }

// Breakers exposes the per-geometry circuit breakers (for /healthz and
// tests).
func (s *Server) Breakers() *BreakerSet { return s.breakers }

// admit enqueues t or reports why it cannot. The depth gauge counts
// admitted-but-unfinished tasks (queued or running), so backpressure
// tracks real outstanding work, not just channel occupancy.
func (s *Server) admit(t *task) error {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	if d := s.depth.Load(); d >= int64(s.cfg.QueueDepth) {
		obs.Add("serve/rejected_429", 1)
		return ErrQueueFull
	}
	select {
	case s.intake <- t:
		d := s.depth.Add(1)
		obs.SetGauge("serve/queue_depth", float64(d))
		obs.Add("serve/admitted_total", 1)
		return nil
	default:
		obs.Add("serve/rejected_429", 1)
		return ErrQueueFull
	}
}

// admitDone balances admit once a task finished.
func (s *Server) admitDone() {
	d := s.depth.Add(-1)
	obs.SetGauge("serve/queue_depth", float64(d))
}

// Drain stops admission and waits — bounded by ctx — for every already
// admitted request to finish. It is idempotent; only the first call closes
// the intake. In-flight requests are never dropped: the workers run the
// queue dry before Drain returns.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	first := !s.draining
	s.draining = true
	s.admitMu.Unlock()
	if first {
		close(s.intake)
	}
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain interrupted with %d request(s) outstanding: %w",
			s.depth.Load(), ctx.Err())
	}
}

// Handler returns the HTTP API:
//
//	POST /v1/recover      Z field + geometry -> recovered R field
//	POST /v1/measure      R field + geometry -> simulated Z field
//	POST /v1/prewarm      warm-handoff push: store warm starts for re-homed keys
//	GET  /v1/warmstate    export warm-start fields for a warm handoff
//	GET  /healthz         liveness + drain state
//	GET  /metrics         Prometheus text (when Config.Recorder is set)
//	GET  /debug/pprof/*   runtime profiles (when Config.EnablePprof)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recover", obs.InstrumentHTTP("serve", "recover", s.handleRecover))
	mux.HandleFunc("POST /v1/measure", obs.InstrumentHTTP("serve", "measure", s.handleMeasure))
	mux.HandleFunc("POST /v1/prewarm", obs.InstrumentHTTP("serve", "prewarm", s.handlePrewarm))
	mux.HandleFunc("GET /v1/warmstate", obs.InstrumentHTTP("serve", "warmstate", s.handleWarmState))
	mux.HandleFunc("GET /healthz", obs.InstrumentHTTP("serve", "healthz", s.handleHealthz))
	if s.cfg.Recorder != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(s.cfg.Recorder))
	}
	if s.cfg.EnablePprof {
		mux.Handle("/debug/pprof/", obs.PprofMux())
	}
	return mux
}

// maxBodyBytes bounds request bodies: a 64x64 float64 matrix in JSON is
// well under 1 MiB even with long decimal expansions.
const maxBodyBytes = 8 << 20

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error()})
}

// admissionStatus maps admission errors to HTTP statuses.
func admissionStatus(err error) int {
	if errors.Is(err, ErrQueueFull) {
		return http.StatusTooManyRequests
	}
	return http.StatusServiceUnavailable
}

// shed refuses a request with backpressure semantics: the Retry-After
// header tells well-behaved clients when to come back instead of
// hammering a saturated server.
func (s *Server) shed(w http.ResponseWriter, status int, err error) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	obs.Add("serve/shed_total", 1)
	writeErr(w, status, err)
}

// serveStale answers t from the geometry-keyed stale cache when the live
// pipeline cannot: the last recovered R for /v1/recover, the last
// measured Z for /v1/measure. The reply is explicit about its provenance
// (degraded: true, cache: "stale"); clients that cannot tolerate a stale
// answer retry after the Retry-After hint instead. Reports whether a
// response was written.
func (s *Server) serveStale(w http.ResponseWriter, t *task, reason string) bool {
	var f *grid.Field
	var ok bool
	switch t.kind {
	case kindRecover:
		f, ok = s.cache.WarmStart(t.arr)
	case kindMeasure:
		f, ok = s.cache.LastZ(t.arr)
	}
	if !ok {
		return false
	}
	obs.Add("serve/degraded_total", 1)
	if t.kind == kindRecover {
		writeJSON(w, http.StatusOK, RecoverResponse{
			R: rowsFromField(f), Cache: "stale",
			Degraded: true, DegradedReason: reason,
		})
	} else {
		writeJSON(w, http.StatusOK, MeasureResponse{
			Z: rowsFromField(f), Cache: "stale",
			Degraded: true, DegradedReason: reason,
		})
	}
	return true
}

// runViaQueue admits t and waits for its result or the request context.
// It is also where graceful degradation lives: an open circuit breaker or
// a saturated queue falls back to a stale cached answer when one exists
// and sheds with Retry-After when none does. Draining is not degradable —
// the server is going away and clients must fail over, not limp along on
// stale data.
func (s *Server) runViaQueue(w http.ResponseWriter, t *task, cancel context.CancelFunc) (taskResult, bool) {
	defer cancel()
	gk := geomKey(t.arr)
	if !s.breakers.Allow(gk) {
		obs.Add("serve/breaker_shed", 1)
		if s.serveStale(w, t, "circuit breaker open for geometry "+gk) {
			return taskResult{}, false
		}
		s.shed(w, http.StatusServiceUnavailable,
			fmt.Errorf("serve: circuit breaker open for geometry %s", gk))
		return taskResult{}, false
	}
	t.queueSpan = obs.StartSpanIn(t.ctx, "serve/queue")
	if err := s.admit(t); err != nil {
		t.queueSpan.End()
		// allow() above may have released a half-open probe; a probe turned
		// away by admission MUST still settle the breaker, or probing=true
		// leaks forever and no later request can ever retry the keyspace.
		// Queue-full at probe time is the common case — the breaker opened
		// under the same saturation.
		s.breakers.Refused(gk)
		if errors.Is(err, ErrQueueFull) && s.serveStale(w, t, "solver pool saturated") {
			return taskResult{}, false
		}
		s.shed(w, admissionStatus(err), err)
		return taskResult{}, false
	}
	// Wait for the worker even past the deadline: it observes the same ctx
	// and replies promptly with 503, which keeps the single producer of
	// t.done unambiguous.
	res := <-t.done
	if res.err != nil && res.status == http.StatusServiceUnavailable {
		// Saturation-class failure: deadline burned in the queue or the
		// solve was cancelled. Feed the breaker, then degrade if possible.
		s.breakers.Failure(gk)
		if s.serveStale(w, t, res.err.Error()) {
			return taskResult{}, false
		}
		s.shed(w, res.status, res.err)
		return taskResult{}, false
	}
	// Any other completed outcome — success or a client-data 4xx — proves
	// the keyspace's pipeline is healthy.
	s.breakers.Success(gk)
	if res.err != nil {
		writeErr(w, res.status, res.err)
		return taskResult{}, false
	}
	return res, true
}

func (s *Server) deadlineFor(ms int64) time.Duration {
	if ms > 0 {
		return time.Duration(ms) * time.Millisecond
	}
	return s.cfg.DefaultDeadline
}

func (s *Server) handleRecover(w http.ResponseWriter, r *http.Request) {
	obs.Add("serve/requests_recover", 1)
	var req RecoverRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	// JSON carries no NaN or infinity, so the sign is all left to check.
	if req.Tol < 0 || req.MaxIter < 0 {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("tol %g and max_iter %d must not be negative", req.Tol, req.MaxIter))
		return
	}
	z, err := fieldFromRows(req.Rows, req.Cols, s.cfg.MaxDim, req.Z)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid z field: %w", err))
		return
	}
	arr := grid.New(req.Rows, req.Cols)
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMS))
	t := &task{
		kind:    kindRecover,
		ctx:     ctx,
		arr:     arr,
		field:   z,
		tol:     req.Tol,
		maxIter: req.MaxIter,
		warm:    req.WarmStart == nil || *req.WarmStart,
		enq:     time.Now(),
		done:    make(chan taskResult, 1),
	}
	res, ok := s.runViaQueue(w, t, cancel)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, RecoverResponse{
		R:          rowsFromField(res.field),
		Iterations: res.iterations,
		Residual:   res.residual,
		Cache:      cacheLabel(res.cacheHit),
		QueuedMS:   ms(res.queued),
		SolveMS:    ms(res.solve),
		Timings:    res.timings,
		TraceID:    traceIDFor(r),
	})
}

func (s *Server) handleMeasure(w http.ResponseWriter, r *http.Request) {
	obs.Add("serve/requests_measure", 1)
	var req MeasureRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	rf, err := fieldFromRows(req.Rows, req.Cols, s.cfg.MaxDim, req.R)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid r field: %w", err))
		return
	}
	arr := grid.New(req.Rows, req.Cols)
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMS))
	t := &task{
		kind:  kindMeasure,
		ctx:   ctx,
		arr:   arr,
		field: rf,
		enq:   time.Now(),
		done:  make(chan taskResult, 1),
	}
	res, ok := s.runViaQueue(w, t, cancel)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, MeasureResponse{
		Z:        rowsFromField(res.field),
		Cache:    cacheLabel(res.cacheHit),
		QueuedMS: ms(res.queued),
		SolveMS:  ms(res.solve),
		Timings:  res.timings,
		TraceID:  traceIDFor(r),
	})
}

// traceIDFor reads the request's trace identity (set by instrument) for
// echoing in response bodies; empty when tracing is off.
func traceIDFor(r *http.Request) string {
	if tc, ok := obs.TraceFromContext(r.Context()); ok {
		return tc.Trace.String()
	}
	return ""
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// handleHealthz is the machine-readable load and liveness probe. It is
// deliberately cheap — atomic loads, one cache-stats mutex, one breaker
// mutex — because a fleet router polls it on its heartbeat interval and
// feeds the numbers straight into bounded-load spill decisions. See
// docs/serving.md for the field contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.admitMu.RLock()
	draining := s.draining
	s.admitMu.RUnlock()
	hits, misses := s.cache.Stats()
	h := HealthResponse{
		Status:        "ok",
		UptimeS:       time.Since(s.start).Seconds(),
		QueueDepth:    s.depth.Load(),
		QueueCapacity: s.cfg.QueueDepth,
		InFlight:      s.running.Load(),
		Workers:       s.cfg.Workers,
		Draining:      draining,
		CacheHits:     hits,
		CacheMisses:   misses,
		Breakers:      s.breakers.States(),
	}
	status := http.StatusOK
	if draining {
		h.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// Package serve turns Parma's one-shot solver/circuit stack into a
// long-running service: an HTTP/JSON API in front of an admission queue
// with bounded depth and per-request deadlines, a worker pool that takes
// admitted requests straight off the queue in admission order and runs
// recoveries and forward measurements with context cancellation threaded
// through the Newton iterations, and an LRU cache that amortizes Laplacian
// factorizations and warm-start R estimates across requests — the
// effective-resistance amortization the PEERS line of work shows is where
// serving throughput lives.
//
// Request lifecycle: handler → admit (429 when the queue is full, 503 when
// draining) → queue → worker → response. Every stage is measured: queue
// depth and wait, cache hit rate, and per-endpoint latency histograms all
// land in the obs registry and are scraped from GET /metrics.
package serve

import (
	"fmt"
	"math"

	"parma/internal/grid"
)

// RecoverRequest is the POST /v1/recover body: a measured Z field plus the
// array geometry and optional solver options.
type RecoverRequest struct {
	Rows int         `json:"rows"`
	Cols int         `json:"cols"`
	Z    [][]float64 `json:"z"`
	// Tol is the target relative residual; zero selects the solver default.
	Tol float64 `json:"tol,omitempty"`
	// MaxIter bounds LM iterations; zero selects the solver default.
	MaxIter int `json:"max_iter,omitempty"`
	// WarmStart opts out of the geometry-keyed warm-start cache when set to
	// false; unset (nil) means true.
	WarmStart *bool `json:"warm_start,omitempty"`
	// DeadlineMS overrides the server's default per-request deadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// Timings is the per-request latency attribution breakdown: where one
// request's wall time went, stage by stage. queue_ms is admission to worker
// pickup, factor_ms is time spent factorizing grounded Laplacians inside
// the solve, and solve_ms is the remaining solver time. The three stages
// sum to within jitter of total_ms, so a client (or a latency dashboard) can
// see at a glance whether a slow request burned its budget queueing or
// computing.
type Timings struct {
	QueueMS float64 `json:"queue_ms"`
	// BatchMS is never set, so it stays off the wire: there is no batching
	// stage. The field remains only because the benchmark module
	// (benchmark/serve.go) still reads it; it goes with the next revision
	// of that module (ROADMAP item 3).
	BatchMS  float64 `json:"batch_ms,omitempty"`
	FactorMS float64 `json:"factor_ms"`
	SolveMS  float64 `json:"solve_ms"`
	TotalMS  float64 `json:"total_ms"`
}

// RecoverResponse is the POST /v1/recover reply.
type RecoverResponse struct {
	R          [][]float64 `json:"r"`
	Iterations int         `json:"iterations"`
	Residual   float64     `json:"residual"`
	Cache      string      `json:"cache"` // "hit" (warm start used), "miss", or "stale" (degraded)
	QueuedMS   float64     `json:"queued_ms"`
	SolveMS    float64     `json:"solve_ms"`
	// Timings attributes the request's latency across pipeline stages; it
	// is omitted on degraded (stale-cache) replies, which never entered the
	// pipeline.
	Timings *Timings `json:"timings,omitempty"`
	// TraceID echoes the request's distributed trace so clients can join
	// their own telemetry to the server's span tree (also exposed as a
	// traceparent response header).
	TraceID string `json:"trace_id,omitempty"`
	// Degraded marks a stale-cache answer served because the live pipeline
	// could not run this request (saturation, deadline, or an open circuit
	// breaker). R is then the last good recovery for this geometry, not a
	// recovery of the submitted Z.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// MeasureRequest is the POST /v1/measure body: a resistance field to run
// through the forward simulator.
type MeasureRequest struct {
	Rows       int         `json:"rows"`
	Cols       int         `json:"cols"`
	R          [][]float64 `json:"r"`
	DeadlineMS int64       `json:"deadline_ms,omitempty"`
}

// MeasureResponse is the POST /v1/measure reply.
type MeasureResponse struct {
	Z        [][]float64 `json:"z"`
	Cache    string      `json:"cache"` // "hit" (factorization reused), "miss", or "stale" (degraded)
	QueuedMS float64     `json:"queued_ms"`
	SolveMS  float64     `json:"solve_ms"`
	// Timings attributes the request's latency across pipeline stages (see
	// RecoverResponse.Timings); factor_ms is the Laplacian factorization —
	// near zero on a factorization-cache hit.
	Timings *Timings `json:"timings,omitempty"`
	// TraceID echoes the request's distributed trace.
	TraceID string `json:"trace_id,omitempty"`
	// Degraded marks a stale-cache answer: the last measured Z for this
	// geometry, which may correspond to a different R than the one
	// submitted.
	Degraded       bool   `json:"degraded,omitempty"`
	DegradedReason string `json:"degraded_reason,omitempty"`
}

// PrewarmEntry is one geometry's warm state in the handoff protocol: the
// geometry key ("RxC") and its warm-start R field, which is required.
type PrewarmEntry struct {
	Key string      `json:"key"`
	R   [][]float64 `json:"r,omitempty"`
}

// PrewarmRequest is the POST /v1/prewarm body: the warm state of geometry
// keys the fleet router just moved to this server, at most MaxWarmChunk
// bytes.
type PrewarmRequest struct {
	Entries []PrewarmEntry `json:"entries"`
}

// PrewarmResponse acknowledges a prewarm: how many entries were accepted.
// The reply is 200, sent after every warm start is in FactorCache.
type PrewarmResponse struct {
	Accepted int `json:"accepted"`
}

// WarmStateResponse is the GET /v1/warmstate reply: the warm-start fields
// this server holds for the requested geometry keys, exported so a router
// can move them to the server that takes the keys over. Keys with no
// cached warm start are left out.
type WarmStateResponse struct {
	Entries []PrewarmEntry `json:"entries"`
}

// ErrorResponse is the body of every non-200 reply.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the GET /healthz reply: liveness plus a cheap,
// machine-readable load probe. A fleet router polls this on its heartbeat
// interval, so every field must be readable without touching the request
// pipeline — queue depth and in-flight are atomics, the cache and breaker
// snapshots each take one mutex.
type HealthResponse struct {
	Status  string  `json:"status"` // "ok" or "draining"
	UptimeS float64 `json:"uptime_s"`
	// QueueDepth counts admitted-but-unfinished requests (queued or
	// running); QueueCapacity is the admission bound behind 429s.
	QueueDepth    int64 `json:"queue_depth"`
	QueueCapacity int   `json:"queue_capacity"`
	// InFlight counts requests a worker is executing right now — the
	// subset of QueueDepth that has left the queue.
	InFlight int64 `json:"in_flight"`
	Workers  int   `json:"workers"`
	Draining bool  `json:"draining"`
	// CacheHits/CacheMisses are the lifetime factorization/warm-start
	// cache counters, so a driver can compute fleet-wide hit rates without
	// parsing the Prometheus exposition.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Breakers lists geometry keyspaces whose circuit breaker has recorded
	// failures; absence means closed and healthy.
	Breakers []BreakerStatus `json:"breakers,omitempty"`
}

// fieldFromRows validates a row-major JSON matrix and converts it to a
// grid.Field. maxDim bounds both dimensions against oversized allocations.
// Every entry must be positive: resistances and measured effective
// resistances alike (JSON carries no NaN or infinity).
func fieldFromRows(rows, cols, maxDim int, vals [][]float64) (*grid.Field, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("invalid geometry %dx%d", rows, cols)
	}
	if rows > maxDim || cols > maxDim {
		return nil, fmt.Errorf("geometry %dx%d exceeds the server's max dimension %d", rows, cols, maxDim)
	}
	if len(vals) != rows {
		return nil, fmt.Errorf("field has %d rows, geometry says %d", len(vals), rows)
	}
	f := grid.NewField(rows, cols)
	for i, row := range vals {
		if len(row) != cols {
			return nil, fmt.Errorf("row %d has %d columns, geometry says %d", i, len(row), cols)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("entry (%d,%d) is not finite", i, j)
			}
			if v <= 0 {
				return nil, fmt.Errorf("entry (%d,%d) = %g must be positive", i, j, v)
			}
			f.Set(i, j, v)
		}
	}
	return f, nil
}

// rowsFromField converts a grid.Field to the row-major JSON shape.
func rowsFromField(f *grid.Field) [][]float64 {
	out := make([][]float64, f.Rows())
	for i := range out {
		row := make([]float64, f.Cols())
		for j := range row {
			row[j] = f.At(i, j)
		}
		out[i] = row
	}
	return out
}

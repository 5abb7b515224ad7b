package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"parma/internal/obs"
	"parma/internal/serve"
)

// Config tunes the router. The zero value of every field selects a
// sensible default, so Config{Backends: ...} is a working configuration.
type Config struct {
	// Backends is the initial fleet membership (required). Membership is
	// dynamic after construction: the authenticated /admin/backends API
	// adds and removes members at runtime with an atomic ring swap.
	Backends []*Backend
	// Policy is one of PolicyRoundRobin, PolicyLeastLoaded,
	// PolicyAffinity. Empty selects round-robin.
	Policy string
	// Vnodes is the ring's virtual-node count per backend (affinity
	// policy and /fleet ownership reporting). Zero selects DefaultVnodes.
	Vnodes int
	// SpillFactor is the bounded-load constant c for affinity spill:
	// a request spills off its owner when the owner's load exceeds
	// ceil(c × (total+1) / n). Values <= 1 select 1.25.
	SpillFactor float64
	// Attempts bounds how many backends one request may try. Zero selects
	// min(3, len(Backends)).
	Attempts int
	// AttemptTimeout is the per-attempt deadline (context deadline on the
	// outbound request). Zero selects 30s.
	AttemptTimeout time.Duration
	// Probe configures the health loop.
	Probe ProberConfig
	// BreakerThreshold consecutive transport/503 failures open a
	// backend's circuit breaker; zero selects 5. BreakerOpenFor is the
	// shed window before a half-open probe; zero selects 2s.
	BreakerThreshold int
	BreakerOpenFor   time.Duration
	// RetryAfter is the backoff hint attached to router-generated sheds
	// (no live backend, every candidate refused). Zero selects 1s.
	RetryAfter time.Duration
	// MaxBody bounds proxied request bodies — which the router buffers in
	// full for idempotent replay across failover attempts, so this is a
	// per-request memory bound, not just a validation limit. Oversize
	// bodies answer 413. Zero selects 1 MiB (a 64×64 float64 matrix in
	// JSON sits well under it).
	MaxBody int64
	// MaxInFlight bounds concurrently proxied requests router-wide; past
	// it new requests shed with 429 + Retry-After instead of queueing
	// into timeouts. Zero disables the bound.
	MaxInFlight int
	// MaxPerBackend bounds this router's outstanding requests to any one
	// backend; candidates at the cap are skipped (and a request every
	// candidate skips sheds with 429). Zero disables the bound.
	MaxPerBackend int
	// HedgeBudget enables hedged /v1/recover requests: after a
	// rolling-p95 delay a second attempt launches at the ring successor,
	// first response wins, the loser is context-cancelled. The value is
	// the budget — the max fraction of recover requests that may hedge —
	// so hedging can never exceed HedgeBudget × traffic. Zero disables
	// hedging.
	HedgeBudget float64
	// HedgeDelayMin/HedgeDelayMax clamp the rolling-p95 hedge delay.
	// Zeros select 1ms and 500ms.
	HedgeDelayMin time.Duration
	HedgeDelayMax time.Duration
	// AdminToken authenticates the /admin/backends API (constant-time
	// compare against X-Parma-Admin-Token or a bearer token). Empty
	// disables the admin API entirely.
	AdminToken string
	// DrainTimeout bounds how long a coordinated removal waits for the
	// departing backend's in-flight requests. Zero selects 10s.
	DrainTimeout time.Duration
	// Recorder, when set, is served by GET /metrics.
	Recorder *obs.Recorder
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = PolicyRoundRobin
	}
	if c.Attempts <= 0 {
		// Not clamped to the backend count: membership is dynamic, so the
		// per-request candidate list is what bounds actual attempts.
		c.Attempts = 3
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerOpenFor <= 0 {
		c.BreakerOpenFor = 2 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Router fronts a parmad fleet: it owns the ring, the policy, the health
// prober, and one circuit breaker per backend, and proxies the compute
// endpoints with candidate failover, admission control, and hedged
// recover attempts. Create with New, serve via Handler, launch the
// health loop with Start, stop with Close. Membership is mutable at
// runtime (admin API): mu guards the backends slice and the ring, which
// swap together atomically; each Ring value stays immutable.
type Router struct {
	cfg      Config
	mu       sync.RWMutex
	backends []*Backend
	ring     *Ring
	policy   Policy
	// seen is the set of geometry keys (string → struct{}) a worker has
	// answered 2xx for — the warm-handoff universe. Keys only, no backend
	// names: where a key's warm state lives is derived from the ring when
	// a handoff needs it. Grow-only, so the steady state is a lock-free
	// read.
	seen     sync.Map
	breakers *serve.BreakerSet
	prober   *Prober
	client   *http.Client
	hedger   *hedger
	inflight atomic.Int64 // router-wide admission counter
	start    time.Time
}

// New validates cfg and builds the router (health loop not yet running;
// call Start).
func New(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name
	}
	ring := NewRing(names, cfg.Vnodes)
	if ring.Len() != len(cfg.Backends) {
		return nil, fmt.Errorf("fleet: backend names must be unique")
	}
	policy, err := NewPolicy(cfg.Policy, cfg.SpillFactor)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:      cfg,
		backends: append([]*Backend(nil), cfg.Backends...),
		ring:     ring,
		policy:   policy,
		breakers: serve.NewBreakerSet(cfg.BreakerThreshold, cfg.BreakerOpenFor, "fleet"),
		prober:   NewProber(cfg.Backends, cfg.Probe),
		hedger:   newHedger(cfg.HedgeBudget, cfg.HedgeDelayMin, cfg.HedgeDelayMax),
		// The client timeout backstops the per-attempt context deadline:
		// both are always set, so a wedged worker can pin neither an
		// attempt nor the connection pool.
		client: &http.Client{Timeout: cfg.AttemptTimeout + 5*time.Second},
		start:  time.Now(),
	}
	// Health transitions feed warm handoff: an ejected backend's ring
	// successors are told which keys they just inherited.
	rt.prober.OnEject = rt.onEject
	rt.publishRingShares()
	return rt, nil
}

// Start launches the health prober under ctx.
func (rt *Router) Start(ctx context.Context) { rt.prober.Start(ctx) }

// Close stops the health prober.
func (rt *Router) Close() { rt.prober.Close() }

// Ring exposes the current ownership ring (for /fleet and tests).
func (rt *Router) Ring() *Ring {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring
}

// membership snapshots the backend set and ring together. The slice is
// replaced wholesale on every swap, never mutated, so callers may read it
// lock-free after the snapshot.
func (rt *Router) membership() ([]*Backend, *Ring) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.backends, rt.ring
}

// publishRingShares exports each backend's hash-space share as a gauge,
// re-published after every membership swap.
func (rt *Router) publishRingShares() {
	_, ring := rt.membership()
	shares := ring.OwnedShare()
	for i, name := range ring.Backends() {
		obs.SetGauge("fleet/ring/share/"+name, shares[i])
	}
}

// Handler returns the router's HTTP surface:
//
//	POST   /v1/recover            proxied to a worker chosen by the policy
//	POST   /v1/measure            proxied likewise
//	GET    /healthz               fleet liveness + per-backend detail
//	GET    /fleet                 ring ownership + backend states
//	GET    /admin/backends        membership list (authenticated)
//	POST   /admin/backends        add a member (authenticated)
//	DELETE /admin/backends/{name} coordinated drain + remove (authenticated)
//	GET    /metrics               Prometheus text (when Config.Recorder is set)
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/recover", rt.instrument("recover", rt.proxy))
	mux.HandleFunc("POST /v1/measure", rt.instrument("measure", rt.proxy))
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /fleet", rt.handleFleet)
	mux.HandleFunc("GET /admin/backends", rt.admin(rt.handleListBackends))
	mux.HandleFunc("POST /admin/backends", rt.admin(rt.handleAddBackend))
	mux.HandleFunc("DELETE /admin/backends/{name}", rt.admin(rt.handleRemoveBackend))
	if rt.cfg.Recorder != nil {
		mux.Handle("GET /metrics", obs.MetricsHandler(rt.cfg.Recorder))
	}
	return mux
}

// redNames is one endpoint's precomputed RED metric names.
type redNames struct {
	requests, errors, latency string
}

// statusWriter captures the response status for RED accounting.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// endpointHandler is a proxied endpoint: the route name plus the request.
type endpointHandler func(w http.ResponseWriter, r *http.Request, endpoint string)

// instrument wraps an endpoint with traceparent adoption, a fleet-level
// request span, and RED metrics — the same shape as the serving tier's
// wrapper, one layer up. With recording disabled the wrapper is one load
// and a closure call.
func (rt *Router) instrument(endpoint string, h endpointHandler) http.HandlerFunc {
	names := redNames{
		requests: "fleet/red/" + endpoint + "/requests",
		errors:   "fleet/red/" + endpoint + "/errors",
		latency:  "fleet/red/" + endpoint + "/latency_ms",
	}
	spanName := "fleet/http/" + endpoint
	return func(w http.ResponseWriter, r *http.Request) {
		if !obs.Enabled() {
			h(w, r, endpoint)
			return
		}
		start := time.Now()
		ctx := r.Context()
		if tp := r.Header.Get("traceparent"); tp != "" {
			if tc, err := obs.ParseTraceparent(tp); err == nil {
				ctx = obs.ContextWithTrace(ctx, tc)
			}
		}
		ctx, sp := obs.StartSpanCtx(ctx, spanName)
		if !sp.Trace().IsZero() {
			w.Header().Set("traceparent", sp.TraceContext().Traceparent())
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r.WithContext(ctx), endpoint)
		elapsed := time.Since(start)
		sp.End(obs.I("status", sw.status))
		obs.Add(names.requests, 1)
		if sw.status >= 500 || sw.status == http.StatusTooManyRequests {
			obs.Add(names.errors, 1)
		}
		obs.Observe(names.latency, float64(elapsed)/float64(time.Millisecond))
	}
}

// geomProbe is the fragment of a compute request the router decodes: the
// geometry key is all routing needs, so the body is never fully parsed.
type geomProbe struct {
	Rows int `json:"rows"`
	Cols int `json:"cols"`
}

// routable filters a membership snapshot to the backends that may take
// traffic now, in member order.
func routable(backends []*Backend) []*Backend {
	out := make([]*Backend, 0, len(backends))
	for _, b := range backends {
		if b.Routable() {
			out = append(out, b)
		}
	}
	return out
}

// overCap reports whether the per-backend outstanding bound would be
// exceeded by one more request to b. The check-then-send is racy by a
// request or two under concurrency — it is a soft cap ordering the shed
// decision, not an accounting invariant.
func (rt *Router) overCap(b *Backend) bool {
	return rt.cfg.MaxPerBackend > 0 && b.InFlight() >= int64(rt.cfg.MaxPerBackend)
}

// seenKeys returns the seen set, sorted.
func (rt *Router) seenKeys() []string {
	var keys []string
	rt.seen.Range(func(k, _ any) bool {
		keys = append(keys, k.(string))
		return true
	})
	sort.Strings(keys)
	return keys
}

// proxy forwards one compute request. Both compute endpoints are
// idempotent — a recovery or measurement is a pure function of the
// request body — so a failed attempt (connect error, mid-response crash,
// or a 503 shed) retries on the policy's next candidate, and /v1/recover
// may additionally hedge: race a delayed second attempt at the ring
// successor, first response wins. The body was fully buffered (bounded by
// MaxBody) before the first attempt, so replays are byte-identical.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, endpoint string) {
	if max := rt.cfg.MaxInFlight; max > 0 {
		if n := rt.inflight.Add(1); n > int64(max) {
			rt.inflight.Add(-1)
			obs.Add("fleet/admission_shed_total", 1)
			rt.shed(w, http.StatusTooManyRequests,
				fmt.Errorf("fleet: router at its in-flight bound (%d)", max))
			return
		}
		defer rt.inflight.Add(-1)
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.cfg.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			obs.Add("fleet/body_too_large_total", 1)
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("fleet: request body exceeds %d bytes", tooBig.Limit))
			return
		}
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	var g geomProbe
	if err := json.Unmarshal(body, &g); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if g.Rows < 1 || g.Cols < 1 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("invalid geometry %dx%d", g.Rows, g.Cols))
		return
	}
	key := strconv.Itoa(g.Rows) + "x" + strconv.Itoa(g.Cols)

	backends, ring := rt.membership()
	candidates := rt.policy.Candidates(key, ring, routable(backends))
	if len(candidates) > rt.cfg.Attempts {
		candidates = candidates[:rt.cfg.Attempts]
	}
	if len(candidates) == 0 {
		obs.Add("fleet/no_backend_total", 1)
		rt.shed(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: no live backend for geometry %s", key))
		return
	}

	// Only recover requests hedge: they are idempotent AND their latency
	// is dominated by the solve, where a second opinion at the successor
	// actually helps. Each eligible request counts into the budget
	// denominator whether or not it ends up hedging.
	hedgeable := endpoint == "recover" && rt.hedger.enabled()
	if hedgeable {
		rt.hedger.sawRequest()
	}

	ctx := r.Context()
	attempts := 0
	capSkipped := 0
	hedged := false
	var last *attemptResult
	for i := 0; i < len(candidates); i++ {
		b := candidates[i]
		if rt.overCap(b) {
			obs.Add("fleet/backend_cap_skip_total", 1)
			capSkipped++
			continue
		}
		if !rt.breakers.Allow(b.Name) {
			obs.Add("fleet/breaker_skip_total", 1)
			continue
		}
		attempts++
		if attempts > 1 {
			obs.Add("fleet/failover_total", 1)
		}

		var res *attemptResult
		settled := false // breaker/latency feedback already applied?
		if hedgeable && !hedged && i+1 < len(candidates) {
			var launched bool
			res, launched = rt.hedgedAttempt(ctx, b, candidates[i+1], r.URL.Path, body)
			settled = true
			if launched {
				hedged = true
				attempts++
				i++ // the hedge consumed the next candidate
			}
		} else {
			res = rt.attempt(ctx, b, r.URL.Path, body)
		}

		if res.err != nil {
			if !settled {
				rt.breakers.Failure(b.Name)
				obs.Add(b.mErrors, 1)
			}
			obs.Log().Warn("fleet: attempt failed",
				"backend", b.Name, "endpoint", endpoint, "err", res.err.Error())
			if ctx.Err() != nil {
				break // the client is gone; stop burning backends
			}
			continue
		}
		if res.status == http.StatusServiceUnavailable {
			// A shed: the worker is alive but cannot take this request now.
			// Feed the breaker and try the next candidate; keep the reply so
			// an all-shed fleet relays the worker's own Retry-After rather
			// than inventing a router error.
			if !settled {
				rt.breakers.Failure(b.Name)
				obs.Add(b.mErrors, 1)
			}
			last = res
			continue
		}
		if !settled {
			rt.breakers.Success(b.Name)
			if hedgeable {
				rt.hedger.observe(res.durationMS)
			}
		}
		// Only an answered geometry is worth handing off, and only the
		// affinity policy places by the ring that handoff follows. A 4xx
		// must not get in: workers reject a whole /v1/warmstate or
		// /v1/prewarm batch over one key they cannot parse.
		if res.status/100 == 2 && rt.cfg.Policy == PolicyAffinity {
			rt.seen.LoadOrStore(key, struct{}{})
		}
		rt.relay(w, res, attempts, hedged)
		return
	}
	if last != nil {
		rt.relay(w, last, attempts, hedged)
		return
	}
	if attempts == 0 && capSkipped > 0 {
		obs.Add("fleet/admission_shed_total", 1)
		rt.shed(w, http.StatusTooManyRequests,
			fmt.Errorf("fleet: all %d candidate backend(s) for geometry %s at their outstanding cap", capSkipped, key))
		return
	}
	obs.Add("fleet/exhausted_total", 1)
	rt.shed(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: all %d candidate backend(s) for geometry %s failed", attempts, key))
}

// hedgedAttempt races one attempt at primary against a second attempt at
// the ring successor, launched only after the hedger's rolling-p95 delay
// and only if the hedge budget admits it. Both attempts derive from one
// cancellable parent context; the first good reply wins and cancel()
// reels the loser in, so a hedge costs at most one duplicated in-flight
// solve, never a dangling one. Breaker and latency feedback for both
// attempts is applied here (on each attempt's own goroutine — the caller
// may return before the loser finishes, and a loser cancelled by us must
// not count as a backend failure).
func (rt *Router) hedgedAttempt(ctx context.Context, primary, secondary *Backend, path string, body []byte) (res *attemptResult, launched bool) {
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan *attemptResult, 2)
	run := func(b *Backend) {
		go func() {
			r := rt.attempt(hctx, b, path, body)
			switch {
			case r.err != nil:
				if hctx.Err() == nil { // a real failure, not our cancellation
					rt.breakers.Failure(b.Name)
					obs.Add(b.mErrors, 1)
				}
			case r.status == http.StatusServiceUnavailable:
				rt.breakers.Failure(b.Name)
				obs.Add(b.mErrors, 1)
			default:
				rt.breakers.Success(b.Name)
				rt.hedger.observe(r.durationMS)
			}
			results <- r
		}()
	}
	run(primary)
	outstanding := 1
	timer := time.NewTimer(rt.hedger.delay())
	defer timer.Stop()
	var best *attemptResult
	for outstanding > 0 {
		select {
		case <-timer.C:
			// The primary is still out past the hedge delay: launch the
			// hedge if the successor is takeable and the budget admits it.
			// A breaker claim refused by the budget is settled as Refused so
			// a half-open probe slot is never leaked.
			if launched || rt.overCap(secondary) {
				continue
			}
			if !rt.breakers.Allow(secondary.Name) {
				continue
			}
			if !rt.hedger.tryHedge() {
				rt.breakers.Refused(secondary.Name)
				continue
			}
			launched = true
			obs.Add("fleet/hedge_launched_total", 1)
			run(secondary)
			outstanding++
		case r := <-results:
			outstanding--
			if r.err == nil && r.status != http.StatusServiceUnavailable {
				if launched && r.backend == secondary {
					obs.Add("fleet/hedge_won_total", 1)
				}
				cancel() // the loser stops burning its backend now, not at defer
				return r, launched
			}
			if best == nil || (best.err != nil && r.err == nil) {
				best = r // prefer a relayable 503 over a transport error
			}
		}
	}
	return best, launched
}

// attemptResult is one backend's reply (or transport failure).
type attemptResult struct {
	backend    *Backend
	status     int
	body       []byte
	header     http.Header
	durationMS float64
	err        error
}

// attempt forwards the buffered body to one backend under a per-attempt
// context deadline, recording a fleet/proxy span (backend, status,
// duration) inside the request trace and injecting that span's
// traceparent into the outbound request — which is what stitches the
// worker's own span tree under the router's.
func (rt *Router) attempt(ctx context.Context, b *Backend, path string, body []byte) *attemptResult {
	attemptCtx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	sp := obs.StartSpanIn(ctx, "fleet/proxy")
	start := time.Now()
	res := &attemptResult{backend: b}
	defer func() {
		res.durationMS = float64(time.Since(start)) / float64(time.Millisecond)
		status := res.status
		if res.err != nil {
			status = -1
		}
		sp.End(obs.S("backend", b.Name), obs.I("status", status))
		obs.Add(b.mRequests, 1)
		obs.Observe(b.mLatency, res.durationMS)
	}()

	req, err := http.NewRequestWithContext(attemptCtx, http.MethodPost, b.URL+path, bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if sp.Active() && !sp.Trace().IsZero() {
		req.Header.Set("traceparent", sp.TraceContext().Traceparent())
	}

	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	// Buffer the reply while the attempt context is still alive: a worker
	// crashing mid-body surfaces here as a read error, which the caller
	// retries on the next candidate — nothing has been written to the
	// client yet.
	replyBody, err := io.ReadAll(io.LimitReader(resp.Body, rt.cfg.MaxBody+1))
	if err != nil {
		res.err = fmt.Errorf("reading backend response: %w", err)
		return res
	}
	res.status = resp.StatusCode
	res.body = replyBody
	res.header = resp.Header
	return res
}

// relay writes one backend reply to the client, labelling which backend
// answered, how many attempts the request took, and whether a hedge was
// in flight.
func (rt *Router) relay(w http.ResponseWriter, res *attemptResult, attempts int, hedged bool) {
	h := w.Header()
	if ct := res.header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		h.Set("Retry-After", ra)
	}
	h.Set("X-Parma-Backend", res.backend.Name)
	h.Set("X-Parma-Attempts", strconv.Itoa(attempts))
	if hedged {
		h.Set("X-Parma-Hedged", "1")
	}
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// shed refuses a request with backpressure semantics, mirroring the
// serving tier: Retry-After tells well-behaved clients when to come back.
func (rt *Router) shed(w http.ResponseWriter, status int, err error) {
	secs := int(math.Ceil(rt.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	obs.Add("fleet/shed_total", 1)
	writeErr(w, status, err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, serve.ErrorResponse{Error: err.Error()})
}

// BackendHealth is one backend's row in the router's /healthz and /fleet
// replies.
type BackendHealth struct {
	Name     string `json:"name"`
	URL      string `json:"url"`
	Alive    bool   `json:"alive"`
	Draining bool   `json:"draining"`
	// QueueDepth/InFlight/QueueCapacity are the worker's last-probed
	// numbers; RouterInFlight is this router's own outstanding count.
	QueueDepth     int64   `json:"queue_depth"`
	InFlight       int64   `json:"in_flight"`
	QueueCapacity  int     `json:"queue_capacity"`
	RouterInFlight int64   `json:"router_in_flight"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	Breaker        string  `json:"breaker"` // "closed", "open", or "half-open"
	ProbeFailures  int     `json:"probe_failures,omitempty"`
	LastErr        string  `json:"last_err,omitempty"`
	LastOKAgoMS    float64 `json:"last_ok_ago_ms"`
	RingShare      float64 `json:"ring_share"`
}

// FleetHealth is the router's GET /healthz (and /fleet) reply.
type FleetHealth struct {
	// Status is "ok" (every backend routable), "degraded" (some but not
	// all routable), or "down" (none routable; the reply is then 503).
	Status   string          `json:"status"`
	Policy   string          `json:"policy"`
	UptimeS  float64         `json:"uptime_s"`
	Alive    int             `json:"alive"`
	Total    int             `json:"total"`
	Vnodes   int             `json:"vnodes"`
	Backends []BackendHealth `json:"backends"`
}

// health assembles the fleet snapshot shared by /healthz and /fleet.
func (rt *Router) health() FleetHealth {
	backends, ring := rt.membership()
	shares := ring.OwnedShare()
	shareOf := make(map[string]float64, len(shares))
	for i, name := range ring.Backends() {
		shareOf[name] = shares[i]
	}
	fh := FleetHealth{
		Policy:  rt.policy.Name(),
		UptimeS: time.Since(rt.start).Seconds(),
		Total:   len(backends),
		Vnodes:  ring.vnodes,
	}
	routable := 0
	for _, b := range backends {
		p := b.Probe()
		if p.Alive {
			fh.Alive++
		}
		if p.Alive && !p.Draining {
			routable++
		}
		fh.Backends = append(fh.Backends, BackendHealth{
			Name:           b.Name,
			URL:            b.URL,
			Alive:          p.Alive,
			Draining:       p.Draining,
			QueueDepth:     p.QueueDepth,
			InFlight:       p.InFlight,
			QueueCapacity:  p.QueueCapacity,
			RouterInFlight: b.InFlight(),
			CacheHits:      p.CacheHits,
			CacheMisses:    p.CacheMisses,
			Breaker:        rt.breakers.State(b.Name),
			ProbeFailures:  p.Failures,
			LastErr:        p.LastErr,
			LastOKAgoMS:    float64(time.Since(p.LastOK)) / float64(time.Millisecond),
			RingShare:      shareOf[b.Name],
		})
	}
	switch {
	case routable == len(backends):
		fh.Status = "ok"
	case routable > 0:
		fh.Status = "degraded"
	default:
		fh.Status = "down"
	}
	return fh
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fh := rt.health()
	status := http.StatusOK
	if fh.Status == "down" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, fh)
}

// handleFleet reports the same snapshot as /healthz plus the ring's
// ownership of a key when ?key=RxC is given — the operator's "where does
// this geometry live" probe.
func (rt *Router) handleFleet(w http.ResponseWriter, r *http.Request) {
	type fleetReply struct {
		FleetHealth
		Key    string   `json:"key,omitempty"`
		Owner  string   `json:"owner,omitempty"`
		Chain  []string `json:"chain,omitempty"`
		Shares []string `json:"-"`
	}
	reply := fleetReply{FleetHealth: rt.health()}
	if key := r.URL.Query().Get("key"); key != "" {
		ring := rt.Ring()
		reply.Key = key
		reply.Owner = ring.Owner(key)
		reply.Chain = ring.Successors(key, ring.Len())
	}
	writeJSON(w, http.StatusOK, reply)
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
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
	// Policy is PolicyAffinity or PolicyRoundRobin. Empty selects
	// affinity, as parma-router does.
	Policy string
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
	// MaxBody bounds proxied request bodies — which the router buffers in
	// full for idempotent replay across failover attempts, so this is a
	// per-request memory bound, not just a validation limit. Oversize
	// bodies answer 413. Zero selects 1 MiB (a 64×64 float64 matrix in
	// JSON sits well under it).
	MaxBody int64
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
		c.Policy = PolicyAffinity
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
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// maxAttempts bounds how many backends one request may try. It is not
// clamped to the backend count: membership is dynamic, so the
// per-request candidate list is what bounds actual attempts.
const maxAttempts = 3

// Router fronts a parmad fleet: it owns the ring, the policy, the health
// prober, and one circuit breaker per backend, and proxies the compute
// endpoints with candidate failover.
// Admission is the workers' own: each bounds its queue and answers 429,
// which the router relays. Create with New, serve via Handler, launch the
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
	// names: where a key's warm state lives is derived from the ring and
	// the routable set when a handoff needs it. Grow-only, so the steady
	// state is a lock-free read.
	seen     sync.Map
	breakers *serve.BreakerSet
	prober   *Prober
	client   *http.Client
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
	ring := NewRing(names, DefaultVnodes)
	if ring.Len() != len(cfg.Backends) {
		return nil, fmt.Errorf("fleet: backend names must be unique")
	}
	policy, err := NewPolicy(cfg.Policy)
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
		// The client timeout backstops the per-attempt context deadline:
		// both are always set, so a wedged worker can pin neither an
		// attempt nor the connection pool.
		client: &http.Client{Timeout: cfg.AttemptTimeout + 5*time.Second},
		start:  time.Now(),
	}
	// Health transitions move warm state like membership changes do.
	rt.prober.OnTransition = rt.onHealth
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
	for _, endpoint := range []string{"recover", "measure"} {
		mux.HandleFunc("POST /v1/"+endpoint, obs.InstrumentHTTP("fleet", endpoint, func(w http.ResponseWriter, r *http.Request) {
			rt.proxy(w, r, endpoint)
		}))
	}
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
// or a 503 shed) retries on the policy's next candidate. The body was
// fully buffered (bounded by MaxBody) before the first attempt, so replays
// are byte-identical.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, endpoint string) {
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
	if len(candidates) > maxAttempts {
		candidates = candidates[:maxAttempts]
	}
	if len(candidates) == 0 {
		obs.Add("fleet/no_backend_total", 1)
		rt.shed(w, http.StatusServiceUnavailable,
			fmt.Errorf("fleet: no live backend for geometry %s", key))
		return
	}

	ctx := r.Context()
	attempts := 0
	var last *attemptResult
	for _, b := range candidates {
		if !rt.breakers.Allow(b.Name) {
			obs.Add("fleet/breaker_skip_total", 1)
			continue
		}
		attempts++
		if attempts > 1 {
			obs.Add("fleet/failover_total", 1)
		}

		res := rt.attempt(ctx, b, r.URL.Path, body)
		if res.err != nil {
			rt.breakers.Failure(b.Name)
			obs.Add(b.mErrors, 1)
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
			rt.breakers.Failure(b.Name)
			obs.Add(b.mErrors, 1)
			last = res
			continue
		}
		rt.breakers.Success(b.Name)
		// Only an answered geometry is worth handing off, and only the
		// affinity policy places by the ring that handoff follows. A 4xx
		// must not get in: workers reject a whole /v1/warmstate or
		// /v1/prewarm batch over one key they cannot parse.
		if res.status/100 == 2 && rt.cfg.Policy == PolicyAffinity {
			rt.seen.LoadOrStore(key, struct{}{})
		}
		rt.relay(w, res, attempts)
		return
	}
	if last != nil {
		rt.relay(w, last, attempts)
		return
	}
	obs.Add("fleet/exhausted_total", 1)
	rt.shed(w, http.StatusServiceUnavailable,
		fmt.Errorf("fleet: all %d candidate backend(s) for geometry %s failed", attempts, key))
}

// attemptResult is one backend's reply (or transport failure).
type attemptResult struct {
	backend *Backend
	status  int
	body    []byte
	header  http.Header
	err     error
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
		status := res.status
		if res.err != nil {
			status = -1
		}
		sp.End(obs.S("backend", b.Name), obs.I("status", status))
		obs.Add(b.mRequests, 1)
		obs.Observe(b.mLatency, float64(time.Since(start))/float64(time.Millisecond))
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
// answered and how many attempts the request took.
func (rt *Router) relay(w http.ResponseWriter, res *attemptResult, attempts int) {
	h := w.Header()
	if ct := res.header.Get("Content-Type"); ct != "" {
		h.Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		h.Set("Retry-After", ra)
	}
	h.Set("X-Parma-Backend", res.backend.Name)
	h.Set("X-Parma-Attempts", strconv.Itoa(attempts))
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
}

// shed refuses a request the router itself cannot place (no live
// backend, every candidate failed) with backpressure semantics, mirroring
// the serving tier: Retry-After tells well-behaved clients to come back in
// a second.
func (rt *Router) shed(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Retry-After", "1")
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
		Key   string   `json:"key,omitempty"`
		Owner string   `json:"owner,omitempty"`
		Chain []string `json:"chain,omitempty"`
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

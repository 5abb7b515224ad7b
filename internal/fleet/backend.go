package fleet

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Backend is one parmad worker as the router sees it: a stable name (the
// ring-hash identity — stable names keep geometry ownership identical
// across router restarts even when workers bind random ports), a base
// URL, the router's own in-flight count, and the last health-probe
// observation.
type Backend struct {
	Name string
	URL  string // base URL, e.g. "http://127.0.0.1:8321"

	// inflight counts requests this router currently has outstanding to
	// the backend — the freshest load signal available, updated on the
	// request path itself.
	inflight atomic.Int64

	// cordoned marks a backend the router itself has taken out of
	// rotation (coordinated drain before removal). Unlike probe.Draining —
	// the worker's own verdict — a cordon is a router decision, flipped
	// before the ring swap so no request races into a departing backend.
	cordoned atomic.Bool

	mu    sync.Mutex
	probe ProbeState

	// Precomputed per-backend RED metric names so the proxy hot path
	// never concatenates strings.
	mRequests, mErrors, mLatency string
}

// ProbeState is the last /healthz observation for a backend.
type ProbeState struct {
	// Alive is the failure detector's verdict: false once the backend has
	// gone SuspectAfter without a successful probe, true again on the
	// first successful probe after that.
	Alive bool
	// Draining reports the worker answered 503 with status "draining":
	// still alive (it is finishing admitted work) but not accepting new
	// requests, so routing must skip it without tripping its breaker.
	Draining bool
	// QueueDepth, InFlight, QueueCapacity, CacheHits, and CacheMisses
	// mirror the worker's HealthResponse fields.
	QueueDepth    int64
	InFlight      int64
	QueueCapacity int
	CacheHits     int64
	CacheMisses   int64
	// LastOK is when the last successful probe completed; Failures counts
	// consecutive probe failures since then.
	LastOK   time.Time
	Failures int
	LastErr  string
}

// NewBackend builds a backend. addr may be a bare host:port (http is
// assumed) or a full URL.
func NewBackend(name, addr string) *Backend {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	return &Backend{
		Name:      name,
		URL:       strings.TrimRight(url, "/"),
		mRequests: "fleet/red/backend/" + name + "/requests",
		mErrors:   "fleet/red/backend/" + name + "/errors",
		mLatency:  "fleet/red/backend/" + name + "/latency_ms",
	}
}

// ParseBackends parses router -backend specs. Each spec is "name=addr" or
// a bare addr (which becomes its own name — note that bare random-port
// addrs give the ring a different identity every run, so named specs are
// what keep affinity stable across restarts). Names must be unique.
func ParseBackends(specs []string) ([]*Backend, error) {
	var out []*Backend
	seen := map[string]bool{}
	for _, spec := range specs {
		for _, one := range strings.Split(spec, ",") {
			one = strings.TrimSpace(one)
			if one == "" {
				continue
			}
			name, addr := one, one
			if i := strings.IndexByte(one, '='); i >= 0 {
				name, addr = one[:i], one[i+1:]
			}
			if name == "" || addr == "" {
				return nil, fmt.Errorf("fleet: bad backend spec %q (want name=host:port)", one)
			}
			if seen[name] {
				return nil, fmt.Errorf("fleet: duplicate backend name %q", name)
			}
			seen[name] = true
			out = append(out, NewBackend(name, addr))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("fleet: no backends configured")
	}
	return out, nil
}

// InFlight returns the router-side outstanding request count.
func (b *Backend) InFlight() int64 { return b.inflight.Load() }

// Load is the signal bounded-load spill orders by: the router's own
// in-flight count (fresh, but blind to other routers) plus the worker's
// last-probed queue depth (staler, but global — it sees every router's
// and direct client's traffic). The sum double counts this router's
// already-admitted requests; that bias is uniform across backends, so the
// ordering it induces is still the right one.
func (b *Backend) Load() int64 {
	b.mu.Lock()
	depth := b.probe.QueueDepth
	b.mu.Unlock()
	return b.inflight.Load() + depth
}

// Probe returns the last health observation.
func (b *Backend) Probe() ProbeState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probe
}

// setProbe stores a new observation.
func (b *Backend) setProbe(p ProbeState) {
	b.mu.Lock()
	b.probe = p
	b.mu.Unlock()
}

// Cordon takes the backend out of rotation on the router's authority;
// the prober keeps observing it, but no new request is sent its way.
func (b *Backend) Cordon() { b.cordoned.Store(true) }

// Routable reports whether new requests may be sent: alive, not draining,
// and not cordoned by the router.
func (b *Backend) Routable() bool {
	if b.cordoned.Load() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.probe.Alive && !b.probe.Draining
}

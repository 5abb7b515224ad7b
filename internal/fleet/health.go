package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"parma/internal/obs"
	"parma/internal/serve"
)

// ProberConfig tunes the health loop: a periodic beacon (an HTTP probe),
// a suspect window after which a silent peer is declared dead, and
// readmission the moment the peer answers again — ejection is a routing
// decision, not a tombstone.
type ProberConfig struct {
	// Every is the probe period. Zero selects 250ms.
	Every time.Duration
	// SuspectAfter is how long a backend may go without a successful
	// probe before it is ejected. Zero selects 4×Every, so one lost probe
	// alone never ejects a backend.
	SuspectAfter time.Duration
	// Timeout bounds one probe attempt. Zero selects min(Every, 1s).
	Timeout time.Duration
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Every <= 0 {
		c.Every = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 4 * c.Every
	}
	if c.Timeout <= 0 {
		c.Timeout = c.Every
		if c.Timeout > time.Second {
			c.Timeout = time.Second
		}
	}
	return c
}

// Prober drives the health loop over a backend set. Membership is
// dynamic: Add and Remove adjust the probed set at runtime, and the
// OnTransition hook (set before Start) lets the router react to liveness
// transitions by moving warm state where routing now sends each key.
type Prober struct {
	cfg    ProberConfig
	client *http.Client

	mu       sync.Mutex
	backends []*Backend

	// OnTransition fires when the loop ejects a backend (it crossed the
	// suspect window) or readmits one (its first successful probe after
	// that); Probe().Alive tells which. It runs on the probe goroutine
	// under the loop's context, so it must be fast or detach.
	OnTransition func(context.Context, *Backend)

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// NewProber builds a prober; Start launches it.
func NewProber(backends []*Backend, cfg ProberConfig) *Prober {
	cfg = cfg.withDefaults()
	return &Prober{
		cfg:      cfg,
		backends: append([]*Backend(nil), backends...),
		// The client timeout is a backstop behind the per-probe context
		// deadline; both are set so a wedged worker cannot pin the loop.
		client: &http.Client{Timeout: cfg.Timeout + time.Second},
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// snapshot copies the probed set so the loop never ranges a slice a
// membership change is mutating.
func (p *Prober) snapshot() []*Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*Backend(nil), p.backends...)
}

// Add starts probing b. The backend is seeded suspect (Alive=false) and
// probed once synchronously under ctx, so a healthy joiner is routable by
// the time Add returns while an unreachable one stays out of rotation
// until its first successful probe — suspect-until-first-success, the
// inverse of Start's optimistic seeding, because a joining backend has no
// track record to extend credit against. That first probe runs before the
// loop can see b, and fires no OnTransition: the join has handed off
// already. A joiner the loop admits later is readmitted like any other
// backend.
func (p *Prober) Add(ctx context.Context, b *Backend) {
	b.setProbe(ProbeState{Alive: false})
	p.probeOne(ctx, b)
	p.mu.Lock()
	p.backends = append(p.backends, b)
	p.mu.Unlock()
	p.publishAlive()
}

// Remove stops probing the named backend and zeroes its liveness gauge.
func (p *Prober) Remove(name string) {
	p.mu.Lock()
	keep := p.backends[:0]
	for _, b := range p.backends {
		if b.Name != name {
			keep = append(keep, b)
		}
	}
	p.backends = keep
	p.mu.Unlock()
	obs.SetGauge("fleet/backend/"+name+"/alive", 0)
	p.publishAlive()
}

// Start seeds every backend as alive (optimistically — a backend that was
// never reachable is ejected one suspect window after startup) and
// launches the probe loop under ctx.
func (p *Prober) Start(ctx context.Context) {
	now := time.Now()
	for _, b := range p.snapshot() {
		b.setProbe(ProbeState{Alive: true, LastOK: now})
	}
	p.publishAlive()
	go p.run(ctx)
}

// Close stops the loop and waits for it to exit.
func (p *Prober) Close() {
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Prober) run(ctx context.Context) {
	defer close(p.done)
	// Probe immediately so routing converges before the first tick.
	p.probeAll(ctx)
	tick := time.NewTicker(p.cfg.Every)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ctx.Done():
			return
		case <-tick.C:
			p.probeAll(ctx)
		}
	}
}

// probeAll probes every backend concurrently: one slow worker must not
// delay its peers' liveness verdicts past the suspect window.
func (p *Prober) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, b := range p.snapshot() {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			if p.probeOne(ctx, b) && p.OnTransition != nil {
				p.OnTransition(ctx, b)
			}
		}(b)
	}
	wg.Wait()
	p.publishAlive()
}

// probeOne performs one health check and applies the failure-detector
// transition rules to the backend's state. It reports whether the backend
// was ejected or readmitted.
func (p *Prober) probeOne(ctx context.Context, b *Backend) bool {
	h, err := p.fetch(ctx, b)
	prev := b.Probe()
	next := prev
	if err != nil {
		next.Failures++
		next.LastErr = err.Error()
		next.Draining = false
		if prev.Alive && time.Since(prev.LastOK) > p.cfg.SuspectAfter {
			next.Alive = false
			obs.Add("fleet/ejected_total", 1)
			obs.Log().WarnContext(ctx, "fleet: backend ejected",
				"backend", b.Name, "after", p.cfg.SuspectAfter.String(), "err", err.Error())
			b.setProbe(next)
			return true
		}
		b.setProbe(next)
		return false
	}
	if !prev.Alive {
		obs.Add("fleet/readmitted_total", 1)
		obs.Log().InfoContext(ctx, "fleet: backend readmitted", "backend", b.Name)
	}
	next = ProbeState{
		Alive:         true,
		Draining:      h.Draining || h.Status == "draining",
		QueueDepth:    h.QueueDepth,
		InFlight:      h.InFlight,
		QueueCapacity: h.QueueCapacity,
		CacheHits:     h.CacheHits,
		CacheMisses:   h.CacheMisses,
		LastOK:        time.Now(),
	}
	b.setProbe(next)
	return !prev.Alive
}

// fetch performs the HTTP probe. A 503 whose body parses as a draining
// HealthResponse is a healthy answer — the worker is alive and finishing
// admitted work — while any other non-200 is a failure.
func (p *Prober) fetch(ctx context.Context, b *Backend) (*serve.HealthResponse, error) {
	probeCtx, cancel := context.WithTimeout(ctx, p.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(probeCtx, http.MethodGet, b.URL+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var h serve.HealthResponse
	if jsonErr := json.Unmarshal(body, &h); jsonErr != nil {
		return nil, fmt.Errorf("healthz returned HTTP %d with unparseable body: %w", resp.StatusCode, jsonErr)
	}
	if resp.StatusCode == http.StatusOK || (resp.StatusCode == http.StatusServiceUnavailable && (h.Draining || h.Status == "draining")) {
		return &h, nil
	}
	return nil, fmt.Errorf("healthz returned HTTP %d", resp.StatusCode)
}

// publishAlive refreshes the fleet-level liveness gauges.
func (p *Prober) publishAlive() {
	alive := 0
	for _, b := range p.snapshot() {
		up := 0.0
		if b.Probe().Alive {
			up = 1
			alive++
		}
		obs.SetGauge("fleet/backend/"+b.Name+"/alive", up)
	}
	obs.SetGauge("fleet/backends_alive", float64(alive))
}

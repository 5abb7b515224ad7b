package serve

import (
	"sort"
	"sync"
	"time"

	"parma/internal/obs"
)

// breakerState is the classic three-state circuit-breaker lifecycle.
type breakerState uint8

const (
	bClosed breakerState = iota
	bOpen
	bHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bOpen:
		return "open"
	case bHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker tracks one keyspace's health. In the serving tier a keyspace is
// a geometry: factorization cost, warm-start quality, and solve time all
// key on geometry, so a pathological 64x64 workload must not shed healthy
// 8x8 traffic. The fleet router reuses the same machine with one keyspace
// per backend, so a crashed worker must not shed its healthy peers.
type breaker struct {
	state    breakerState
	failures int
	openedAt time.Time
	probing  bool
}

// BreakerSet holds one three-state circuit breaker per keyspace. Keyspaces
// with no recorded failures carry no entry at all, so the steady state is
// an empty map and a single mutex acquisition per request. The metric
// prefix namespaces the lifecycle counters (<prefix>/breaker_opened and
// friends) so the serving tier and the fleet router stay distinguishable
// on the same scrape.
type BreakerSet struct {
	mu        sync.Mutex
	threshold int
	openFor   time.Duration
	m         map[string]*breaker
	// now reads the clock for open windows: time.Now, except in tests
	// that step it forward instead of sleeping.
	now func() time.Time

	// Precomputed event counter names: the request path must not
	// concatenate strings per state transition.
	mHalfOpen, mClosed, mReopened, mOpened string
}

// NewBreakerSet creates a set that opens a keyspace's breaker after
// threshold consecutive failures and sheds for openFor before admitting a
// half-open probe.
func NewBreakerSet(threshold int, openFor time.Duration, metricPrefix string) *BreakerSet {
	return &BreakerSet{
		threshold: threshold,
		openFor:   openFor,
		m:         map[string]*breaker{},
		now:       time.Now,
		mHalfOpen: metricPrefix + "/breaker_half_open",
		mClosed:   metricPrefix + "/breaker_closed",
		mReopened: metricPrefix + "/breaker_reopened",
		mOpened:   metricPrefix + "/breaker_opened",
	}
}

// Allow reports whether a request for key may enter the live pipeline.
// Open breakers refuse everything until openFor elapses, then admit
// exactly one half-open probe; further requests keep shedding until that
// probe settles the keyspace's fate via Success, Failure, or Refused.
func (s *BreakerSet) Allow(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil {
		return true
	}
	switch b.state {
	case bClosed:
		return true
	case bOpen:
		if s.now().Sub(b.openedAt) < s.openFor {
			return false
		}
		b.state = bHalfOpen
		b.probing = true
		obs.Add(s.mHalfOpen, 1)
		return true
	default: // half-open
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Success closes the keyspace's breaker. Any completed request that is
// not a saturation/deadline failure counts — including client-data 4xx
// results, which prove the pipeline itself is healthy.
func (s *BreakerSet) Success(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil {
		return
	}
	if b.state != bClosed {
		obs.Add(s.mClosed, 1)
	}
	delete(s.m, key)
}

// Refused settles a half-open probe that never entered the pipeline
// because admission turned it away: the keyspace goes back to open for
// another openFor window so a later probe can retry. Without this the
// probe would leak probing=true forever — no request could ever settle
// it, and the keyspace would shed until process restart. Closed and
// already-open breakers are untouched: plain backpressure on a healthy
// keyspace says nothing about its pipeline and must not trip the breaker.
func (s *BreakerSet) Refused(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil || b.state != bHalfOpen {
		return
	}
	b.state = bOpen
	b.openedAt = s.now()
	b.probing = false
	obs.Add(s.mReopened, 1)
}

// Failure records a saturation-class failure (deadline exceeded,
// cancellation under load, an unreachable backend). threshold consecutive
// failures open the breaker; a failed half-open probe re-opens it for
// another openFor.
func (s *BreakerSet) Failure(key string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil {
		b = &breaker{}
		s.m[key] = b
	}
	switch b.state {
	case bHalfOpen:
		b.state = bOpen
		b.openedAt = s.now()
		b.probing = false
		obs.Add(s.mReopened, 1)
	case bClosed:
		b.failures++
		if b.failures >= s.threshold {
			b.state = bOpen
			b.openedAt = s.now()
			obs.Add(s.mOpened, 1)
		}
	}
	// Already open: stragglers from requests admitted before the trip keep
	// the window where it is; re-arming openedAt would let a steady trickle
	// of failures hold the breaker open forever.
}

// BreakerStatus is one keyspace's externally visible breaker state, as
// surfaced by /healthz. Only keyspaces with recorded failures appear;
// absence means closed and healthy.
type BreakerStatus struct {
	Key      string `json:"key"`
	State    string `json:"state"` // "closed", "open", or "half-open"
	Failures int    `json:"failures"`
}

// States snapshots every tracked keyspace in deterministic key order.
// Healthy keyspaces (no entry) are omitted.
func (s *BreakerSet) States() []BreakerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]BreakerStatus, 0, len(s.m))
	for key, b := range s.m {
		out = append(out, BreakerStatus{Key: key, State: b.state.String(), Failures: b.failures})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// State reports the named keyspace's current breaker state ("closed" when
// untracked).
func (s *BreakerSet) State(key string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.m[key]
	if b == nil {
		return bClosed.String()
	}
	return b.state.String()
}

package fleet

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"parma/internal/obs"
)

// Policy orders the routable backends for one request. The router tries
// candidates in order, failing over on connect errors and 503s, so a
// policy expresses preference, not exclusivity: every routable backend
// should appear in the returned slice.
type Policy interface {
	Name() string
	// Candidates returns the routable backends in preference order for
	// the given geometry key. ring and routable come from one membership
	// snapshot, so every routable backend is a ring member. The input
	// slice is never mutated.
	Candidates(key string, ring *Ring, routable []*Backend) []*Backend
}

// Policy names accepted by NewPolicy (and parma-router -policy).
const (
	PolicyRoundRobin  = "roundrobin"
	PolicyLeastLoaded = "leastloaded"
	PolicyAffinity    = "affinity"
)

// NewPolicy builds the named policy. spillFactor is only consulted by the
// affinity policy; spillFactor <= 1 selects the default (1.25, the classic
// bounded-load consistent-hashing c).
func NewPolicy(name string, spillFactor float64) (Policy, error) {
	switch name {
	case PolicyRoundRobin, "":
		return &roundRobin{}, nil
	case PolicyLeastLoaded:
		return leastLoaded{}, nil
	case PolicyAffinity:
		if spillFactor <= 1 {
			spillFactor = 1.25
		}
		return affinity{factor: spillFactor}, nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want %s, %s, or %s)",
		name, PolicyRoundRobin, PolicyLeastLoaded, PolicyAffinity)
}

// roundRobin rotates the starting backend per request, ignoring the key.
// It is the baseline the smoke test measures affinity against: even
// spread, cold caches — each geometry's warm state ends up replicated on
// every worker instead of hot on one.
type roundRobin struct {
	next atomic.Uint64
}

func (*roundRobin) Name() string { return PolicyRoundRobin }

func (p *roundRobin) Candidates(_ string, _ *Ring, routable []*Backend) []*Backend {
	n := len(routable)
	if n == 0 {
		return nil
	}
	start := int((p.next.Add(1) - 1) % uint64(n))
	out := make([]*Backend, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, routable[(start+i)%n])
	}
	return out
}

// leastLoaded orders backends by Backend.Load (router in-flight + probed
// queue depth), name-tiebroken for determinism. It needs the /healthz
// load fields the serving tier exports — Prometheus text was the only
// place queue depth lived before, far too expensive to parse per request.
type leastLoaded struct{}

func (leastLoaded) Name() string { return PolicyLeastLoaded }

func (leastLoaded) Candidates(_ string, _ *Ring, routable []*Backend) []*Backend {
	out := append([]*Backend(nil), routable...)
	loads := make(map[*Backend]int64, len(out))
	for _, b := range out {
		loads[b] = b.Load() // snapshot once so the sort comparator is consistent
	}
	sort.SliceStable(out, func(i, j int) bool {
		if loads[out[i]] != loads[out[j]] {
			return loads[out[i]] < loads[out[j]]
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// affinity consistent-hashes the geometry key onto the ring and prefers
// the owner, then its ring successors — so each geometry's factorization
// and warm-start caches stay hot on one worker, and a dead worker's keys
// re-home to the same successor from every router instance.
//
// Bounded-load spill keeps one hot geometry from melting its owner: when
// the owner's load exceeds ceil(factor × (total+1) / n) — the
// Mirrokni/Thorup/Zadimoghaddam capacity bound — the request spills to
// the first ring successor under the bound, trading one cold solve for
// tail latency. Spills are counted on fleet/spill_total.
//
// The order is a pure function of (ring, routable set, current loads),
// recomputed on every request: nothing is remembered, so a spilled key is
// back on its owner the moment the owner is under the bound, and a
// membership or health transition has no policy state to repair.
type affinity struct {
	factor float64
}

func (affinity) Name() string { return PolicyAffinity }

func (p affinity) Candidates(key string, ring *Ring, routable []*Backend) []*Backend {
	out := ringOrder(ring, key, routable)
	if len(out) == 0 {
		return nil
	}
	var total int64
	for _, b := range out {
		total += b.Load()
	}
	capacity := int64(math.Ceil(p.factor * float64(total+1) / float64(len(out))))
	if out[0].Load() >= capacity {
		for i := 1; i < len(out); i++ {
			if out[i].Load() < capacity {
				obs.Add("fleet/spill_total", 1)
				spilled := out[i]
				copy(out[1:i+1], out[:i])
				out[0] = spilled
				break
			}
		}
		// No backend under the bound: everyone is equally saturated, so
		// the owner keeps the request and admission control does its job.
	}
	return out
}

// ringOrder returns the routable backends in key's ring-successor order:
// the owner first when it is routable, then each next member clockwise.
// Dead, draining and cordoned members drop out, so their keys land on the
// next live successor. It is the one place that answers "where does this
// key go" before load is considered — request routing and warm handoff
// both call it, so they cannot disagree.
func ringOrder(ring *Ring, key string, routable []*Backend) []*Backend {
	byName := make(map[string]*Backend, len(routable))
	for _, b := range routable {
		byName[b.Name] = b
	}
	out := make([]*Backend, 0, len(routable))
	for _, name := range ring.Successors(key, ring.Len()) {
		if b := byName[name]; b != nil {
			out = append(out, b)
		}
	}
	return out
}

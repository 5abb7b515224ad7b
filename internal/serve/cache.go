package serve

import (
	"container/list"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"parma/internal/circuit"
	"parma/internal/grid"
	"parma/internal/obs"
)

// FactorCache is the serving layer's amortization store: one bounded LRU
// holding three kinds of entries.
//
//   - Factorizations: a *circuit.Solver keyed by (geometry, hash of R).
//     Repeated /v1/measure calls on the same field skip the O(N³)
//     grounded-Laplacian inverse and pay only the per-pair lookups.
//     This leans on circuit.Solver being immutable and safe for
//     concurrent readers — see the concurrency tests in internal/circuit.
//   - Warm starts: the last recovered R field keyed by geometry alone.
//     A /v1/recover on a geometry the server has seen before starts LM
//     from the previous answer instead of the closed-form uniform guess,
//     collapsing repeat traffic to a handful of iterations.
//   - Last measurements: the most recent measured Z keyed by geometry, the
//     stale answer the degraded path serves.
//
// All methods are safe for concurrent use.
type FactorCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key string
	val any
}

// NewFactorCache creates a cache bounded to max entries (minimum 1).
func NewFactorCache(max int) *FactorCache {
	if max < 1 {
		max = 1
	}
	return &FactorCache{max: max, ll: list.New(), items: map[string]*list.Element{}}
}

// get returns the cached value and records hit/miss accounting.
func (c *FactorCache) get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		obs.Add("serve/cache_misses", 1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	obs.Add("serve/cache_hits", 1)
	return el.Value.(*cacheEntry).val, true
}

// peek returns the cached value without hit/miss accounting or an LRU
// bump — for observational reads (warm-state export) that must not skew
// the cache stats a fleet router routes on, nor keep an entry alive that
// real traffic has stopped touching.
func (c *FactorCache) peek(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

// put inserts or refreshes key, evicting from the LRU tail past capacity.
func (c *FactorCache) put(key string, v any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: v})
	for c.ll.Len() > c.max {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.items, tail.Value.(*cacheEntry).key)
		obs.Add("serve/cache_evictions", 1)
	}
	obs.SetGauge("serve/cache_size", float64(c.ll.Len()))
}

// Len returns the current entry count.
func (c *FactorCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns lifetime hit and miss counts.
func (c *FactorCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// geomKey canonicalizes an array geometry.
func geomKey(a grid.Array) string { return fmt.Sprintf("%dx%d", a.Rows(), a.Cols()) }

// fieldHash fingerprints a field's exact bit pattern (FNV-1a over the
// float64 bits). Measure traffic replays identical fields byte for byte,
// so bit-exact keying is the honest choice: no tolerance tuning, no false
// sharing between almost-equal fields.
func fieldHash(f *grid.Field) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range f.Values() {
		bits := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(bits >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// Solver returns a factorized forward solver for (a, r), reusing a cached
// factorization when the exact field has been seen before. The bool
// reports a cache hit.
func (c *FactorCache) Solver(a grid.Array, r *grid.Field) (*circuit.Solver, bool, error) {
	key := fmt.Sprintf("fact|%s|%016x", geomKey(a), fieldHash(r))
	if v, ok := c.get(key); ok {
		return v.(*circuit.Solver), true, nil
	}
	s, err := circuit.NewSolver(a, r)
	if err != nil {
		return nil, false, err
	}
	c.put(key, s)
	return s, false, nil
}

// WarmStart returns a copy of the last recovered field for a's geometry,
// if any. The copy keeps cache contents isolated from solver mutation.
func (c *FactorCache) WarmStart(a grid.Array) (*grid.Field, bool) {
	v, ok := c.get("warm|" + geomKey(a))
	if !ok {
		return nil, false
	}
	return v.(*grid.Field).Clone(), true
}

// PeekWarmStart returns a copy of the warm start for a's geometry without
// touching hit/miss accounting or LRU order — the export path behind
// GET /v1/warmstate.
func (c *FactorCache) PeekWarmStart(a grid.Array) (*grid.Field, bool) {
	v, ok := c.peek("warm|" + geomKey(a))
	if !ok {
		return nil, false
	}
	return v.(*grid.Field).Clone(), true
}

// StoreWarmStart records r (cloned) as the warm start for a's geometry.
// Non-positive fields are ignored: they cannot seed a recovery.
func (c *FactorCache) StoreWarmStart(a grid.Array, r *grid.Field) {
	if r == nil || r.Min() <= 0 {
		return
	}
	c.put("warm|"+geomKey(a), r.Clone())
}

// LastZ returns a copy of the most recent measured Z for a's geometry, if
// any — the stale answer the degraded path serves when the live pipeline
// cannot run a measurement.
func (c *FactorCache) LastZ(a grid.Array) (*grid.Field, bool) {
	v, ok := c.get("lastz|" + geomKey(a))
	if !ok {
		return nil, false
	}
	return v.(*grid.Field).Clone(), true
}

// StoreLastZ records z (cloned) as the stale-fallback measurement for a's
// geometry.
func (c *FactorCache) StoreLastZ(a grid.Array, z *grid.Field) {
	if z == nil {
		return
	}
	c.put("lastz|"+geomKey(a), z.Clone())
}

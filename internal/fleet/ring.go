// Package fleet is the layer between clients and a sharded parmad
// deployment: a reverse proxy fronting N workers with pluggable routing
// policies, health-checked failover, and geometry-affinity caching.
//
// The paper's parallelization claim is that MEA recovery workloads shard
// cleanly across independent array geometries; at production scale that
// means many parmad replicas. Because each geometry carries an expensive
// warm state on its worker (the Laplacian factorization and warm-start R
// in internal/serve's LRU — the same per-instance cost structure PEERS
// exploits for effective-resistance solves), routing must be
// geometry-aware: the affinity policy consistent-hashes the geometry key
// onto a ring of workers so repeat traffic for a geometry lands where its
// caches are warm, where naive round-robin scatters it.
//
// The pieces:
//
//   - Ring: a deterministic consistent-hash ring with virtual nodes
//     (this file).
//   - Policy: geometry-affinity and round-robin candidate ordering
//     (policy.go).
//   - Prober: the /healthz heartbeat loop that ejects silent workers and
//     readmits recovered ones after a beacon-period / suspect-window
//     scheme (health.go).
//   - Router: the retrying HTTP proxy with per-backend circuit breakers
//     (reusing internal/serve's BreakerSet), traceparent propagation, and
//     fleet-level RED metrics (proxy.go).
package fleet

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is a consistent-hash ring over backend names. Each backend owns
// vnodes points on the ring; a key belongs to the backend owning the
// first point at or clockwise after the key's hash. Ownership is a pure
// function of the backend name set and vnode count — no wall clock, no
// map iteration, no process-lifetime state — so a restarted router (or a
// second router instance) routes every key identically, which is what
// keeps the per-geometry worker caches warm across router restarts.
//
// A Ring is immutable after construction; membership changes build a new
// Ring via With/Without. The value of consistent hashing is exactly that
// such a change moves only the departed (or arrived) backend's keys:
// everything else keeps its owner, and a dead backend's keys re-home to
// its ring successors.
type Ring struct {
	vnodes int
	names  []string // sorted, deduplicated
	points []ringPoint
}

// ringPoint is one virtual node: the hash position and the backend that
// owns it.
type ringPoint struct {
	hash uint64
	name string
}

// DefaultVnodes balances ownership evenness against ring size: with 64
// points per backend, a 3-worker fleet splits key space within a few
// percent of evenly.
const DefaultVnodes = 64

// NewRing builds a ring over the given backend names (deduplicated;
// order-insensitive). vnodes <= 0 selects DefaultVnodes.
func NewRing(names []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	uniq := append([]string(nil), names...)
	sort.Strings(uniq)
	w := 0
	for i, n := range uniq {
		if i == 0 || uniq[i-1] != n {
			uniq[w] = n
			w++
		}
	}
	uniq = uniq[:w]
	r := &Ring{vnodes: vnodes, names: uniq}
	r.points = make([]ringPoint, 0, len(uniq)*vnodes)
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, ringPoint{hash: hashKey(n + "#" + strconv.Itoa(i)), name: n})
		}
	}
	// Ties (two vnodes hashing identically) are broken by name so the
	// ownership order never depends on input order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].name < r.points[j].name
	})
	return r
}

// hashKey is FNV-1a over the raw bytes — stable across processes and Go
// versions, unlike maphash — pushed through a 64-bit avalanche finalizer
// (MurmurHash3 fmix64). Raw FNV of short, similar strings ("w0#17",
// "16x16") clusters in hash space badly enough to skew ring ownership
// severalfold; the finalizer restores uniform vnode spread.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Backends returns the sorted member names.
func (r *Ring) Backends() []string { return append([]string(nil), r.names...) }

// Len returns the member count.
func (r *Ring) Len() int { return len(r.names) }

// With returns a ring with name added (a no-op copy if already present).
func (r *Ring) With(name string) *Ring {
	return NewRing(append(append([]string(nil), r.names...), name), r.vnodes)
}

// Without returns a ring with name removed.
func (r *Ring) Without(name string) *Ring {
	keep := make([]string, 0, len(r.names))
	for _, n := range r.names {
		if n != name {
			keep = append(keep, n)
		}
	}
	return NewRing(keep, r.vnodes)
}

// Owner returns the backend owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.at(hashKey(key))].name
}

// at returns the index of the first point at or after h, wrapping to 0.
func (r *Ring) at(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Successors returns up to n distinct backends in ring order starting at
// key's owner. This is the failover order: when the owner is saturated
// (bounded-load spill) or dead (health ejection), the key re-homes to the
// next backend on this list, and every router instance computes the same
// list.
func (r *Ring) Successors(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.at(hashKey(key)); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.name] {
			seen[p.name] = true
			out = append(out, p.name)
		}
	}
	return out
}

// OwnedShare reports each backend's share of the hash space, in member
// order (paired with Backends()). It is the ring-ownership gauge exported
// at /metrics: shares should sit near 1/n, and a backend drifting far
// from that indicates too few vnodes.
func (r *Ring) OwnedShare() []float64 {
	share := make([]float64, len(r.names))
	if len(r.points) == 0 {
		return share
	}
	idx := make(map[string]int, len(r.names))
	for i, n := range r.names {
		idx[n] = i
	}
	// The arc (points[i-1].hash, points[i].hash] belongs to points[i]; the
	// wrap-around arc belongs to points[0].
	for i, p := range r.points {
		var width uint64
		if i == 0 {
			width = r.points[0].hash + (^r.points[len(r.points)-1].hash + 1)
		} else {
			width = p.hash - r.points[i-1].hash
		}
		share[idx[p.name]] += float64(width) / (1 << 64)
	}
	return share
}

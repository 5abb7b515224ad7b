package fleet

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"strings"
	"time"

	"parma/internal/obs"
	"parma/internal/serve"
)

// This file is the router's control plane: the authenticated
// /admin/backends API for dynamic membership, the coordinated drain that
// removal performs, and the warm-handoff plumbing that tells a ring
// successor which geometry keys it just inherited — so the first
// re-homed request lands on a pre-built factorization instead of paying
// a cold solve.

// AddBackendRequest is the POST /admin/backends body.
type AddBackendRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// MembershipChange is the reply to a membership mutation: the member
// acted on, the resulting member list, whether a removal finished its
// drain inside the deadline, and the warm-handoff ledger (which keys
// each inheriting backend was told about, and how many of those prewarm
// pushes were delivered).
type MembershipChange struct {
	Member  string   `json:"member"`
	Members []string `json:"members"`
	Drained *bool    `json:"drained,omitempty"`
	// Rehomed maps each inheriting backend to the geometry keys that just
	// moved to it — the consistent-hash delta of the membership change.
	Rehomed       map[string][]string `json:"rehomed,omitempty"`
	PrewarmedKeys int                 `json:"prewarmed_keys"`
}

// admin wraps a handler with admin authentication: a constant-time token
// compare against X-Parma-Admin-Token (or Authorization: Bearer). A
// router started without an admin token has no admin API at all — 403
// regardless of credentials — so membership cannot be mutated on
// deployments that never opted in.
func (rt *Router) admin(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if rt.cfg.AdminToken == "" {
			writeErr(w, http.StatusForbidden,
				fmt.Errorf("fleet: admin API disabled (router started without an admin token)"))
			return
		}
		tok := r.Header.Get("X-Parma-Admin-Token")
		if tok == "" {
			if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
				tok = strings.TrimPrefix(auth, "Bearer ")
			}
		}
		if subtle.ConstantTimeCompare([]byte(tok), []byte(rt.cfg.AdminToken)) != 1 {
			obs.Add("fleet/admin_denied_total", 1)
			writeErr(w, http.StatusUnauthorized, fmt.Errorf("fleet: admin token mismatch"))
			return
		}
		h(w, r)
	}
}

// handleListBackends reports the same snapshot as /healthz; it exists so
// an operator script can read membership from the same authenticated
// surface it mutates.
func (rt *Router) handleListBackends(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.health())
}

// handleAddBackend adds a member at runtime. The swap is atomic (new
// backends slice + new ring under one lock), the joiner starts suspect —
// unroutable until its first successful health probe — and the keys it
// now owns are warm-handed to it from their previous owners before it
// can take traffic, so its first requests hit a warm cache.
func (rt *Router) handleAddBackend(w http.ResponseWriter, r *http.Request) {
	var req AddBackendRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Name == "" || req.URL == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: add needs both name and url"))
		return
	}
	if strings.ContainsAny(req.Name, " /,=") {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("fleet: backend name %q contains reserved characters", req.Name))
		return
	}
	b := NewBackend(req.Name, req.URL)

	rt.mu.Lock()
	for _, existing := range rt.backends {
		if existing.Name == req.Name {
			rt.mu.Unlock()
			writeErr(w, http.StatusConflict, fmt.Errorf("fleet: backend %q is already a member", req.Name))
			return
		}
	}
	oldRing := rt.ring
	newRing := oldRing.With(req.Name)
	rt.backends = append(append([]*Backend(nil), rt.backends...), b)
	rt.ring = newRing
	rt.mu.Unlock()

	obs.Add("fleet/membership_changes_total", 1)
	rt.publishRingShares()
	obs.Log().InfoContext(r.Context(), "fleet: backend added", "backend", req.Name, "url", b.URL)

	// Warm handoff before the joiner is routable: every key the ring just
	// moved to it gets its warm state fetched from the old owner (still a
	// live member) and pushed to the joiner. Only then does the first
	// probe run — so by the time traffic can arrive, the caches are
	// already building.
	moved := RehomedKeys(oldRing, newRing, rt.seenKeys())
	prewarmed := rt.handoffTo(r.Context(), oldRing, b, moved[req.Name])

	rt.prober.Add(r.Context(), b)

	writeJSON(w, http.StatusOK, MembershipChange{
		Member:        req.Name,
		Members:       newRing.Backends(),
		Rehomed:       moved,
		PrewarmedKeys: prewarmed,
	})
}

// handleRemoveBackend removes a member with a coordinated drain: cordon
// (no new routes), atomic ring swap, warm handoff of its keys to their
// ring successors, then wait — bounded by DrainTimeout — for the router's
// own in-flight requests to the victim to finish before it stops being
// probed. The backend process itself is not touched; stopping it is the
// operator's next step.
func (rt *Router) handleRemoveBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")

	rt.mu.Lock()
	var victim *Backend
	for _, b := range rt.backends {
		if b.Name == name {
			victim = b
			break
		}
	}
	if victim == nil {
		rt.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("fleet: backend %q is not a member", name))
		return
	}
	if len(rt.backends) == 1 {
		rt.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("fleet: refusing to remove the last backend"))
		return
	}
	victim.Cordon() // no new routes, even for requests racing the swap
	oldRing := rt.ring
	newRing := oldRing.Without(name)
	keep := make([]*Backend, 0, len(rt.backends)-1)
	for _, b := range rt.backends {
		if b.Name != name {
			keep = append(keep, b)
		}
	}
	rt.backends = keep
	rt.ring = newRing
	rt.mu.Unlock()

	obs.Add("fleet/membership_changes_total", 1)
	rt.publishRingShares()
	obs.SetGauge("fleet/ring/share/"+name, 0)
	obs.Log().InfoContext(r.Context(), "fleet: backend removing", "backend", name)

	moved := RehomedKeys(oldRing, newRing, rt.seenKeys())
	prewarmed := rt.handoffFrom(r.Context(), victim, moved)

	drained := rt.awaitDrain(r.Context(), victim)
	rt.prober.Remove(name)
	obs.Log().InfoContext(r.Context(), "fleet: backend removed",
		"backend", name, "drained", drained, "prewarmed", prewarmed)

	writeJSON(w, http.StatusOK, MembershipChange{
		Member:        name,
		Members:       newRing.Backends(),
		Drained:       &drained,
		Rehomed:       moved,
		PrewarmedKeys: prewarmed,
	})
}

// awaitDrain polls the router's own outstanding count to the victim until
// it reaches zero or the drain deadline passes. Reports whether the drain
// completed.
func (rt *Router) awaitDrain(ctx context.Context, victim *Backend) bool {
	drainCtx, cancel := context.WithTimeout(ctx, rt.cfg.DrainTimeout)
	defer cancel()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if victim.InFlight() == 0 {
			return true
		}
		select {
		case <-drainCtx.Done():
			obs.Add("fleet/drain_timeout_total", 1)
			return victim.InFlight() == 0
		case <-tick.C:
		}
	}
}

// onEject is the prober's ejection hook: the moment a backend is declared
// dead, its ring successors are told, in the background, which keys they
// just inherited. Routing is not involved: the dead backend is already
// out of the routable set the policy sees. Fetching warm state from the
// corpse is attempted best-effort — a draining-but-slow backend may still
// answer — and degrades to key-only prewarms when it cannot.
func (rt *Router) onEject(dead *Backend) {
	backends, ring := rt.membership()
	moved := rehomeToRoutable(ring, dead, routable(backends), rt.seenKeys())
	if len(moved) == 0 {
		return
	}
	go func() {
		// Detached from the probe loop: handoff does bounded network I/O
		// and must not delay liveness verdicts for the rest of the fleet.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		n := rt.handoffFrom(ctx, dead, moved)
		obs.Log().Info("fleet: ejected backend's keys handed off",
			"backend", dead.Name, "prewarmed", n)
	}()
}

// rehomeToRoutable picks out the keys dead was serving — those whose
// first successor among live ∪ {dead} is dead — and groups them by the
// live backend next in line, which is where the policy now sends them:
// the ring itself does not change on a health transition. keys must be
// sorted; each group then is too.
func rehomeToRoutable(ring *Ring, dead *Backend, live []*Backend, keys []string) map[string][]string {
	withDead := append(slices.Clip(live), dead) // Clip: never write into the caller's array
	moved := make(map[string][]string)
	for _, k := range keys {
		if order := ringOrder(ring, k, withDead); len(order) > 1 && order[0] == dead {
			moved[order[1].Name] = append(moved[order[1].Name], k)
		}
	}
	return moved
}

// backendByName resolves a member name against the current membership.
func (rt *Router) backendByName(name string) *Backend {
	backends, _ := rt.membership()
	for _, b := range backends {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// handoffFrom pushes a departing source's keys to their inheriting
// successors: for each successor group, warm state is fetched from the
// source (best-effort) and POSTed to the successor's /v1/prewarm. Returns
// how many keys were delivered.
func (rt *Router) handoffFrom(ctx context.Context, source *Backend, moved map[string][]string) int {
	succs := make([]string, 0, len(moved))
	for name := range moved {
		succs = append(succs, name)
	}
	sort.Strings(succs)
	delivered := 0
	for _, succ := range succs {
		target := rt.backendByName(succ)
		if target == nil {
			continue // membership changed under us; the next transition re-homes again
		}
		entries := rt.fetchWarmState(ctx, source, moved[succ])
		if err := rt.sendPrewarm(ctx, target, entries); err != nil {
			obs.Log().WarnContext(ctx, "fleet: prewarm push failed",
				"target", succ, "keys", len(entries), "err", err.Error())
			continue
		}
		delivered += len(entries)
	}
	if delivered > 0 {
		obs.Add("fleet/prewarm_keys_total", int64(delivered))
	}
	return delivered
}

// handoffTo pushes the keys a joining target inherited, fetching each
// key's warm state from the backend that has been serving it: its first
// routable successor on oldRing — the owner, unless the owner is ejected,
// in which case the policy has been sending the key one member further.
func (rt *Router) handoffTo(ctx context.Context, oldRing *Ring, target *Backend, keys []string) int {
	if len(keys) == 0 {
		return 0
	}
	// Group by source so each is asked once; "" collects the keys nobody
	// routable was serving.
	backends, _ := rt.membership()
	live := routable(backends)
	bySource := make(map[string][]string)
	sorted := append([]string(nil), keys...)
	sort.Strings(sorted)
	for _, k := range sorted {
		name := ""
		if order := ringOrder(oldRing, k, live); len(order) > 0 {
			name = order[0].Name
		}
		bySource[name] = append(bySource[name], k)
	}
	sources := make([]string, 0, len(bySource))
	for name := range bySource {
		sources = append(sources, name)
	}
	sort.Strings(sources)
	var entries []serve.PrewarmEntry
	for _, src := range sources {
		if sb := rt.backendByName(src); sb != nil {
			entries = append(entries, rt.fetchWarmState(ctx, sb, bySource[src])...)
		} else {
			entries = append(entries, keyOnly(bySource[src])...)
		}
	}
	if err := rt.sendPrewarm(ctx, target, entries); err != nil {
		obs.Log().WarnContext(ctx, "fleet: prewarm push to joiner failed",
			"target", target.Name, "keys", len(entries), "err", err.Error())
		return 0
	}
	obs.Add("fleet/prewarm_keys_total", int64(len(entries)))
	return len(entries)
}

// fetchWarmState asks source for the warm-start fields of keys, in chunks
// the worker's /v1/warmstate accepts. Always returns one entry per key: on
// any failure (a crashed source) a chunk's entries degrade to key-only,
// which the target acknowledges and builds nothing from.
func (rt *Router) fetchWarmState(ctx context.Context, source *Backend, keys []string) []serve.PrewarmEntry {
	out := make([]serve.PrewarmEntry, 0, len(keys))
	for len(keys) > 0 {
		n := min(len(keys), serve.MaxWarmStateKeys)
		out = append(out, rt.fetchWarmChunk(ctx, source, keys[:n])...)
		keys = keys[n:]
	}
	return out
}

// keyOnly returns one R-less prewarm entry per key.
func keyOnly(keys []string) []serve.PrewarmEntry {
	out := make([]serve.PrewarmEntry, len(keys))
	for i, k := range keys {
		out[i] = serve.PrewarmEntry{Key: k}
	}
	return out
}

// maxWarmStateBody bounds one /v1/warmstate reply: serve.MaxWarmStateKeys
// fields of 64×64 (the worker's default -max-dim) at up to 24 bytes a JSON
// value. It is the router's guard against a misbehaving worker, and has
// nothing to do with Config.MaxBody, the bound on client request bodies.
const maxWarmStateBody = serve.MaxWarmStateKeys * 64 * 64 * 24

// fetchWarmChunk is one /v1/warmstate round trip for at most
// serve.MaxWarmStateKeys keys.
func (rt *Router) fetchWarmChunk(ctx context.Context, source *Backend, keys []string) []serve.PrewarmEntry {
	fetchCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	u := source.URL + "/v1/warmstate?keys=" + url.QueryEscape(strings.Join(keys, ","))
	req, err := http.NewRequestWithContext(fetchCtx, http.MethodGet, u, nil)
	if err != nil {
		return keyOnly(keys)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return keyOnly(keys)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxWarmStateBody))
	if err != nil || resp.StatusCode != http.StatusOK {
		return keyOnly(keys)
	}
	var ws serve.WarmStateResponse
	if err := json.Unmarshal(body, &ws); err != nil {
		return keyOnly(keys)
	}
	byKey := make(map[string]serve.PrewarmEntry, len(ws.Entries))
	for _, e := range ws.Entries {
		byKey[e.Key] = e
	}
	out := keyOnly(keys)
	for i, k := range keys {
		if e, ok := byKey[k]; ok {
			out[i] = e
		}
	}
	return out
}

// sendPrewarm POSTs entries to target's /v1/prewarm, which replies 200
// once the warm starts are stored.
func (rt *Router) sendPrewarm(ctx context.Context, target *Backend, entries []serve.PrewarmEntry) error {
	if len(entries) == 0 {
		return nil
	}
	payload, err := json.Marshal(serve.PrewarmRequest{Entries: entries})
	if err != nil {
		return err
	}
	sendCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(sendCtx, http.MethodPost, target.URL+"/v1/prewarm", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prewarm returned HTTP %d", resp.StatusCode)
	}
	return nil
}

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
// removal performs, and warm handoff. Every transition that changes where
// routing sends a key (a join, a removal, an ejection, a readmission) moves
// the key's warm start from the member that served it to the member that
// will, so the first re-homed request starts warm instead of paying a cold
// solve.

// AddBackendRequest is the POST /admin/backends body.
type AddBackendRequest struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// MembershipChange is the reply to a membership mutation: the member
// acted on, the resulting member list, whether a removal finished its
// drain inside the deadline, and the warm-handoff ledger (which keys moved
// to each inheriting backend, and how many warm-start fields reached it).
type MembershipChange struct {
	Member  string   `json:"member"`
	Members []string `json:"members"`
	Drained *bool    `json:"drained,omitempty"`
	// Rehomed maps each inheriting backend to the geometry keys that
	// routing now sends to it instead of to another member.
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
// will serve get their warm state handed to it before it can take
// traffic, so its first requests start warm.
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
	// The joiner counts as routable after the join: that is where the
	// keys it takes over will go once its first probe succeeds.
	before := view{rt.ring, routable(rt.backends)}
	after := view{rt.ring.With(req.Name), append(slices.Clip(before.routable), b)}
	rt.backends = append(slices.Clip(rt.backends), b)
	rt.ring = after.ring
	rt.mu.Unlock()

	obs.Add("fleet/membership_changes_total", 1)
	rt.publishRingShares()
	obs.Log().InfoContext(r.Context(), "fleet: backend added", "backend", req.Name, "url", b.URL)

	// Warm handoff before the joiner is routable; only then does its first
	// probe run, so by the time traffic can arrive its warm starts are in.
	rehomed, prewarmed := rt.rehome(r.Context(), before, after)
	rt.prober.Add(r.Context(), b)

	writeJSON(w, http.StatusOK, MembershipChange{
		Member:        req.Name,
		Members:       after.ring.Backends(),
		Rehomed:       rehomed,
		PrewarmedKeys: prewarmed,
	})
}

// handleRemoveBackend removes a member with a coordinated drain: cordon
// (no new routes), atomic ring swap, warm handoff of the keys it served to
// the members that serve them next, then wait — bounded by DrainTimeout —
// for the router's own in-flight requests to the victim to finish before
// it stops being probed. The backend process itself is not touched;
// stopping it is the operator's next step.
func (rt *Router) handleRemoveBackend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")

	rt.mu.Lock()
	i := slices.IndexFunc(rt.backends, func(b *Backend) bool { return b.Name == name })
	if i < 0 {
		rt.mu.Unlock()
		writeErr(w, http.StatusNotFound, fmt.Errorf("fleet: backend %q is not a member", name))
		return
	}
	if len(rt.backends) == 1 {
		rt.mu.Unlock()
		writeErr(w, http.StatusConflict, fmt.Errorf("fleet: refusing to remove the last backend"))
		return
	}
	victim := rt.backends[i]
	before := view{rt.ring, routable(rt.backends)}
	victim.Cordon() // no new routes, even for requests racing the swap
	rt.backends = slices.Delete(slices.Clone(rt.backends), i, i+1)
	after := view{rt.ring.Without(name), routable(rt.backends)}
	rt.ring = after.ring
	rt.mu.Unlock()

	obs.Add("fleet/membership_changes_total", 1)
	rt.publishRingShares()
	obs.SetGauge("fleet/ring/share/"+name, 0)
	obs.Log().InfoContext(r.Context(), "fleet: backend removing", "backend", name)

	rehomed, prewarmed := rt.rehome(r.Context(), before, after)

	drained := rt.awaitDrain(r.Context(), victim)
	rt.prober.Remove(name)
	obs.Log().InfoContext(r.Context(), "fleet: backend removed",
		"backend", name, "drained", drained, "prewarmed", prewarmed)

	writeJSON(w, http.StatusOK, MembershipChange{
		Member:        name,
		Members:       after.ring.Backends(),
		Drained:       &drained,
		Rehomed:       rehomed,
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

// onHealth is the prober's transition hook: b was just ejected or
// readmitted. The ring did not change, only b's routability, so the view
// before the transition is the routable set with b toggled. The handoff
// runs detached, under the probe loop's ctx: it does network I/O and must
// not delay the liveness verdicts of the rest of the fleet.
func (rt *Router) onHealth(ctx context.Context, b *Backend) {
	backends, ring := rt.membership()
	after := view{ring, routable(backends)}
	before := view{ring, slices.DeleteFunc(slices.Clone(after.routable), func(x *Backend) bool { return x == b })}
	if len(before.routable) == len(after.routable) { // b is out of rotation now
		if b.Probe().Alive {
			return // readmitted while draining: routing did not change
		}
		before.routable = append(before.routable, b)
	}
	go func() {
		_, n := rt.rehome(ctx, before, after)
		obs.Log().InfoContext(ctx, "fleet: health transition handed off",
			"backend", b.Name, "alive", b.Probe().Alive, "prewarmed", n)
	}()
}

// view is where routing sends keys at one moment: the ring and the
// members that may take traffic.
type view struct {
	ring     *Ring
	routable []*Backend
}

// first is the member v routes key to, before load is considered, or nil.
func (v view) first(key string) *Backend {
	if order := ringOrder(v.ring, key, v.routable); len(order) > 0 {
		return order[0]
	}
	return nil
}

// move is one warm handoff: the keys routing sent to from and now sends
// to to.
type move struct {
	from, to *Backend
	keys     []string
}

// moves is the one rehoming rule, for joins, removals, ejections and
// readmissions alike. For each key it compares where routing sent it
// before a transition with where it sends it after, and groups the keys
// that changed hands by (from, to). A key nobody served before, or nobody
// serves after, has no warm state to move. keys must be distinct; the
// groups come out ordered by (from, to), each holding its keys in the
// order given, so the result is a pure function of the arguments.
func moves(before, after view, keys []string) []move {
	byPair := make(map[[2]string]*move)
	for _, k := range keys {
		from, to := before.first(k), after.first(k)
		if from == nil || to == nil || from.Name == to.Name {
			continue
		}
		id := [2]string{from.Name, to.Name}
		if byPair[id] == nil {
			byPair[id] = &move{from: from, to: to}
		}
		byPair[id].keys = append(byPair[id].keys, k)
	}
	out := make([]move, 0, len(byPair))
	for _, m := range byPair {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].from.Name != out[j].from.Name {
			return out[i].from.Name < out[j].from.Name
		}
		return out[i].to.Name < out[j].to.Name
	})
	return out
}

// rehome carries warm state across a transition from before to after:
// each move's keys go in chunks of serve.WarmChunks, each chunk fetched
// from the member that served it and pushed, as fetched, to the member
// that will. A move stops at its first failed chunk. rehome returns the
// moved keys grouped by inheriting member and the number of fields
// delivered.
func (rt *Router) rehome(ctx context.Context, before, after view) (map[string][]string, int) {
	rehomed := make(map[string][]string)
	delivered := 0
	for _, m := range moves(before, after, rt.seenKeys()) {
		rehomed[m.to.Name] = append(rehomed[m.to.Name], m.keys...)
		for _, chunk := range serve.WarmChunks(m.keys) {
			n, err := rt.transfer(ctx, m.from, m.to, chunk)
			delivered += n
			if err != nil {
				obs.Log().WarnContext(ctx, "fleet: warm handoff failed",
					"from", m.from.Name, "to", m.to.Name, "keys", len(chunk), "err", err.Error())
				break
			}
		}
	}
	for _, keys := range rehomed {
		sort.Strings(keys)
	}
	if delivered > 0 {
		obs.Add("fleet/prewarm_keys_total", int64(delivered))
	}
	return rehomed, delivered
}

// transfer moves one chunk: it fetches the keys' warm state from from and
// pushes the fields in the reply to to. A failed fetch sends nothing. It
// returns the number of fields to stored.
func (rt *Router) transfer(ctx context.Context, from, to *Backend, keys []string) (int, error) {
	var ws serve.WarmStateResponse
	u := from.URL + "/v1/warmstate?keys=" + url.QueryEscape(strings.Join(keys, ","))
	if err := rt.call(ctx, http.MethodGet, u, nil, &ws); err != nil {
		return 0, fmt.Errorf("fetching from %s: %w", from.Name, err)
	}
	entries := slices.DeleteFunc(ws.Entries, func(e serve.PrewarmEntry) bool { return e.R == nil })
	if len(entries) == 0 {
		return 0, nil
	}
	payload, err := json.Marshal(serve.PrewarmRequest{Entries: entries})
	if err != nil {
		return 0, err
	}
	if err := rt.call(ctx, http.MethodPost, to.URL+"/v1/prewarm", payload, nil); err != nil {
		return 0, fmt.Errorf("pushing to %s: %w", to.Name, err)
	}
	return len(entries), nil
}

// handoffTimeout bounds one warm-state round trip: a fetch or a push of up
// to serve.MaxWarmChunk bytes.
const handoffTimeout = 10 * time.Second

// call is one warm-state round trip: body (nil for none) out, and a 200
// reply of at most serve.MaxWarmChunk bytes decoded into out (nil
// discards it).
func (rt *Router) call(ctx context.Context, method, u string, body []byte, out any) error {
	ctx, cancel := context.WithTimeout(ctx, handoffTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, u, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, serve.MaxWarmChunk))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

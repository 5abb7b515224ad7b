package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"parma/internal/grid"
	"parma/internal/obs"
)

// Warm handoff, worker side. When the fleet router re-homes geometry keys
// — a member drained out, crashed, or a joiner inherited part of the ring
// — it POSTs the inherited keys here. The server acknowledges immediately
// (202) and, for every entry that carries the previous owner's warm-start
// R, stores that field and its grounded-Laplacian factorization in
// FactorCache off the request path. The first re-homed request then finds
// a warm cache instead of paying the cold solve the consistent-hash move
// would otherwise cost. A key-only entry (the previous owner crashed, or
// never held the geometry) is validated, acknowledged and counted, and
// builds nothing: there is no per-geometry artifact left to prebuild.

// parseGeomKey parses an "RxC" geometry key against the server's MaxDim.
func parseGeomKey(key string, maxDim int) (rows, cols int, err error) {
	r, c, ok := strings.Cut(key, "x")
	if !ok {
		return 0, 0, fmt.Errorf("bad geometry key %q (want RxC)", key)
	}
	rows, err = strconv.Atoi(r)
	if err != nil {
		return 0, 0, fmt.Errorf("bad geometry key %q: %w", key, err)
	}
	cols, err = strconv.Atoi(c)
	if err != nil {
		return 0, 0, fmt.Errorf("bad geometry key %q: %w", key, err)
	}
	if rows < 1 || cols < 1 || rows > maxDim || cols > maxDim {
		return 0, 0, fmt.Errorf("geometry %q outside [1,%d] per side", key, maxDim)
	}
	return rows, cols, nil
}

// handlePrewarm accepts a warm-handoff push. Entries are validated
// synchronously (bad keys fail the whole request with 400 — a router bug
// should be loud) and built asynchronously.
func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	var req PrewarmRequest
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Entries) == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("prewarm request carries no entries"))
		return
	}
	type job struct {
		arr  grid.Array
		warm *grid.Field
	}
	jobs := make([]job, 0, len(req.Entries))
	for _, e := range req.Entries {
		rows, cols, err := parseGeomKey(e.Key, s.cfg.MaxDim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		j := job{arr: grid.New(rows, cols)}
		if e.R != nil {
			f, err := fieldFromRows(rows, cols, s.cfg.MaxDim, e.R, true)
			if err != nil {
				writeErr(w, http.StatusBadRequest, fmt.Errorf("entry %s: invalid r field: %w", e.Key, err))
				return
			}
			j.warm = f
		}
		jobs = append(jobs, j)
	}
	obs.Add("serve/prewarm_requests", 1)
	// Build off the request path: the router's handoff must not block on
	// O(N³) factorizations, and the cache methods need no context — each
	// build is bounded CPU work that either lands in the LRU or doesn't.
	go func() {
		for _, j := range jobs {
			if j.warm != nil {
				s.cache.StoreWarmStart(j.arr, j.warm)
				if _, _, err := s.cache.Solver(j.arr, j.warm); err != nil {
					obs.Log().Warn("serve: prewarm factorization failed",
						"geometry", geomKey(j.arr), "err", err.Error())
					continue
				}
			}
			obs.Add("serve/prewarm_keys_total", 1)
		}
	}()
	writeJSON(w, http.StatusAccepted, PrewarmResponse{Accepted: len(jobs)})
}

// MaxWarmStateKeys bounds one GET /v1/warmstate; a router with more keys
// to move asks in chunks of at most this many.
const MaxWarmStateKeys = 256

// handleWarmState exports the warm-start fields for ?keys=k1,k2,... so a
// router can carry them to ring successors during a coordinated drain.
// Unknown or cold keys come back key-only; reads bypass the cache's
// hit/miss accounting (peek) so exporting state does not distort the
// stats the fleet routes on.
func (s *Server) handleWarmState(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("keys")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?keys=RxC,..."))
		return
	}
	keys := strings.Split(raw, ",")
	if len(keys) > MaxWarmStateKeys {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("too many keys (%d > %d)", len(keys), MaxWarmStateKeys))
		return
	}
	resp := WarmStateResponse{Entries: make([]PrewarmEntry, 0, len(keys))}
	for _, key := range keys {
		key = strings.TrimSpace(key)
		rows, cols, err := parseGeomKey(key, s.cfg.MaxDim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		entry := PrewarmEntry{Key: key}
		if f, ok := s.cache.PeekWarmStart(grid.New(rows, cols)); ok {
			entry.R = rowsFromField(f)
		}
		resp.Entries = append(resp.Entries, entry)
	}
	writeJSON(w, http.StatusOK, resp)
}

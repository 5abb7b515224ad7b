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
// — it POSTs the inherited keys here. For every entry that carries the
// previous owner's warm-start R, the server stores that field in
// FactorCache before it replies 200. The first re-homed /v1/recover then
// starts from it instead of paying the cold solve the consistent-hash move
// would otherwise cost. No factorization is built: recovery reads only the
// warm start. A key-only entry (the previous owner crashed, or never held
// the geometry) is validated, acknowledged and counted, and stores nothing.

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

// handlePrewarm accepts a warm-handoff push. Every entry is validated
// before any is stored (bad keys fail the whole request with 400 — a
// router bug should be loud).
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
	type warmStart struct {
		arr grid.Array
		r   *grid.Field
	}
	var warm []warmStart
	for _, e := range req.Entries {
		rows, cols, err := parseGeomKey(e.Key, s.cfg.MaxDim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if e.R == nil {
			continue
		}
		f, err := fieldFromRows(rows, cols, s.cfg.MaxDim, e.R, true)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("entry %s: invalid r field: %w", e.Key, err))
			return
		}
		warm = append(warm, warmStart{arr: grid.New(rows, cols), r: f})
	}
	for _, ws := range warm {
		s.cache.StoreWarmStart(ws.arr, ws.r)
	}
	obs.Add("serve/prewarm_requests", 1)
	obs.Add("serve/prewarm_keys_total", int64(len(req.Entries)))
	writeJSON(w, http.StatusOK, PrewarmResponse{Accepted: len(req.Entries)})
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

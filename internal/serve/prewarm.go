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

// Warm handoff, worker side. When the fleet router moves geometry keys
// from one worker to another (a member joined, left, was ejected or came
// back), it fetches their warm-start fields from the worker that served
// them (GET /v1/warmstate) and pushes them, chunk by chunk, to the worker
// that will (POST /v1/prewarm). The receiver stores every field in
// FactorCache before it replies 200, so the first moved /v1/recover starts
// from it instead of paying a cold solve. No factorization is built:
// recovery reads only the warm start. Both endpoints carry fields only: an
// export leaves out the keys it holds nothing for, and a push entry
// without r is refused.

// MaxWarmChunk bounds one warm-state chunk: a /v1/warmstate reply and a
// /v1/prewarm body alike. /v1/warmstate refuses a key list whose fields
// could exceed it, so every chunk a router can fetch is a body /v1/prewarm
// accepts. WarmChunks splits a router's keys to fit.
const MaxWarmChunk = maxBodyBytes

// warmBytes bounds the JSON size of one rows×cols entry: 26 bytes a value
// (a float64's longest rendering, and its comma), two brackets a row, and
// 64 for the key and the entry's own punctuation.
func warmBytes(rows, cols int) int { return rows*(26*cols+2) + 64 }

// WarmChunks splits keys, in order, into chunks whose fields fit one
// MaxWarmChunk. A key that names no geometry, or whose field alone could
// exceed the bound, travels alone, and /v1/warmstate refuses it.
func WarmChunks(keys []string) [][]string {
	var chunks [][]string
	room := 0
	for _, k := range keys {
		n := MaxWarmChunk
		// No side longer than the bound can fit it, so that parse limit
		// keeps warmBytes from overflowing.
		if rows, cols, err := parseGeomKey(k, MaxWarmChunk); err == nil {
			n = min(warmBytes(rows, cols), MaxWarmChunk)
		}
		if n > room {
			chunks = append(chunks, nil)
			room = MaxWarmChunk
		}
		chunks[len(chunks)-1] = append(chunks[len(chunks)-1], k)
		room -= n
	}
	return chunks
}

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
// before any is stored (a bad key or a missing or invalid field fails the
// whole request with 400 — a router bug should be loud).
func (s *Server) handlePrewarm(w http.ResponseWriter, r *http.Request) {
	var req PrewarmRequest
	body := http.MaxBytesReader(w, r.Body, MaxWarmChunk)
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
		f, err := fieldFromRows(rows, cols, s.cfg.MaxDim, e.R)
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

// handleWarmState exports the warm-start fields for ?keys=k1,k2,... so a
// router can move them to the worker that serves the keys next. Keys with
// no warm start are left out. Reads bypass the cache's hit/miss accounting
// (peek) so exporting state does not distort the stats the fleet routes
// on.
func (s *Server) handleWarmState(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("keys")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("missing ?keys=RxC,..."))
		return
	}
	resp := WarmStateResponse{Entries: []PrewarmEntry{}}
	size := 0
	for _, key := range strings.Split(raw, ",") {
		key = strings.TrimSpace(key)
		rows, cols, err := parseGeomKey(key, s.cfg.MaxDim)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		if size += warmBytes(rows, cols); size > MaxWarmChunk {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("the keys' warm state could exceed one %d-byte chunk", MaxWarmChunk))
			return
		}
		if f, ok := s.cache.PeekWarmStart(grid.New(rows, cols)); ok {
			resp.Entries = append(resp.Entries, PrewarmEntry{Key: key, R: rowsFromField(f)})
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

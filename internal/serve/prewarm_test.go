package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"parma/internal/grid"
	"parma/internal/obs"
)

// waitWarm polls until the async prewarm builder has landed a warm start
// for the geometry (the handler replies 202 before building).
func waitWarm(t *testing.T, s *Server, rows, cols int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := s.cache.PeekWarmStart(grid.New(rows, cols)); ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("prewarm never landed a %dx%d warm start", rows, cols)
}

// TestPrewarmThenRecoverHits: a warm-handoff push makes the first
// /v1/recover on that geometry a warm-start cache hit — the property the
// fleet router's re-home protocol depends on.
func TestPrewarmThenRecoverHits(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 5)

	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/prewarm", PrewarmRequest{
		Entries: []PrewarmEntry{{Key: "5x5", R: rowsFromField(truth)}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prewarm: status %d: %s", resp.StatusCode, body)
	}
	var ack PrewarmResponse
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != 1 {
		t.Fatalf("prewarm ack = %s (err %v)", body, err)
	}
	waitWarm(t, s, 5, 5)

	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/recover",
		RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z), Tol: 1e-8})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: status %d: %s", resp.StatusCode, body)
	}
	var out RecoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Errorf("first recover after prewarm: cache = %q, want hit", out.Cache)
	}
}

// TestPrewarmKeyOnlyBuildsNothing: a key-only entry (crashed previous owner,
// no warm R recoverable) is acknowledged and counted, and leaves the cache
// empty — no per-geometry artifact is left to prebuild. What an entry with r
// builds is TestPrewarmThenRecoverHits's subject.
func TestPrewarmKeyOnlyBuildsNothing(t *testing.T) {
	obs.Enable(obs.NewRecorder())
	defer obs.Disable()
	s, hs := newTestServer(t, Config{Workers: 1})
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/prewarm", PrewarmRequest{
		Entries: []PrewarmEntry{{Key: "6x6"}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("prewarm: status %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(5 * time.Second)
	for obs.GetCounter("serve/prewarm_keys_total").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("key-only prewarm entry was never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("key-only prewarm left %d cache entries, want 0", n)
	}
}

// TestPrewarmValidation: malformed pushes fail loudly — a router bug
// should be a 400, not a silent no-op.
func TestPrewarmValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxDim: 8})
	for name, req := range map[string]PrewarmRequest{
		"empty":        {},
		"bad key":      {Entries: []PrewarmEntry{{Key: "banana"}}},
		"oversize":     {Entries: []PrewarmEntry{{Key: "9x9"}}},
		"ragged field": {Entries: []PrewarmEntry{{Key: "2x2", R: [][]float64{{1}}}}},
		"nonpositive":  {Entries: []PrewarmEntry{{Key: "2x2", R: [][]float64{{1, 1}, {1, 0}}}}},
	} {
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/prewarm", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, body)
		}
	}
}

// TestWarmStateExportDoesNotSkewStats: exporting warm state for a drain
// must not count as cache traffic — the fleet routes on those stats.
func TestWarmStateExportDoesNotSkewStats(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	truth, _ := workload(t, 4)
	s.cache.StoreWarmStart(grid.New(4, 4), truth)

	hits0, misses0 := s.cache.Stats()
	resp, err := hs.Client().Get(hs.URL + "/v1/warmstate?keys=4x4,7x7")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warmstate: status %d: %s", resp.StatusCode, body)
	}
	var out WarmStateResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) != 2 {
		t.Fatalf("warmstate returned %d entries, want 2", len(out.Entries))
	}
	if out.Entries[0].Key != "4x4" || out.Entries[0].R == nil {
		t.Errorf("4x4 entry = %+v, want warm R attached", out.Entries[0])
	}
	if out.Entries[1].Key != "7x7" || out.Entries[1].R != nil {
		t.Errorf("7x7 entry = %+v, want key-only (cold geometry)", out.Entries[1])
	}
	if hits, misses := s.cache.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("warmstate export moved cache stats: %d/%d -> %d/%d", hits0, misses0, hits, misses)
	}
}

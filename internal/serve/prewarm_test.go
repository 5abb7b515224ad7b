package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"parma/internal/grid"
	"parma/internal/obs"
)

// TestPrewarmThenRecoverHits: a warm-handoff push stores the warm start
// before it replies, and makes the first /v1/recover on that geometry a
// warm-start cache hit — the property the fleet router's re-home protocol
// depends on. It builds no factorization: recovery reads only the warm
// start, so one would only take an LRU slot.
func TestPrewarmThenRecoverHits(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 5)

	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/prewarm", PrewarmRequest{
		Entries: []PrewarmEntry{{Key: "5x5", R: rowsFromField(truth)}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("prewarm: status %d: %s", resp.StatusCode, body)
	}
	var ack PrewarmResponse
	if err := json.Unmarshal(body, &ack); err != nil || ack.Accepted != 1 {
		t.Fatalf("prewarm ack = %s (err %v)", body, err)
	}
	if n := s.Cache().Len(); n != 1 {
		t.Fatalf("prewarm with r left %d cache entries, want 1 (the warm start)", n)
	}

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

// TestPrewarmRefusesKeyOnlyEntry: an entry without r has nothing to
// store, so it is a router bug: the push answers 400, and the valid entry
// beside it is not stored either, because every entry is validated first.
func TestPrewarmRefusesKeyOnlyEntry(t *testing.T) {
	obs.Enable(obs.NewRecorder())
	defer obs.Disable()
	s, hs := newTestServer(t, Config{Workers: 1})
	truth, _ := workload(t, 5)
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/prewarm", PrewarmRequest{
		Entries: []PrewarmEntry{{Key: "5x5", R: rowsFromField(truth)}, {Key: "6x6"}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("prewarm with a key-only entry: status %d (%s), want 400", resp.StatusCode, body)
	}
	if n := obs.GetCounter("serve/prewarm_keys_total").Value(); n != 0 {
		t.Fatalf("refused prewarm counted %d keys, want 0", n)
	}
	if n := s.Cache().Len(); n != 0 {
		t.Fatalf("refused prewarm left %d cache entries, want 0", n)
	}
}

// TestPrewarmValidation: malformed pushes fail loudly — a router bug
// should be a 400, not a silent no-op.
func TestPrewarmValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1, MaxDim: 8})
	for name, req := range map[string]PrewarmRequest{
		"empty":        {},
		"bad key":      {Entries: []PrewarmEntry{{Key: "banana"}}},
		"no field":     {Entries: []PrewarmEntry{{Key: "2x2"}}},
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
	// The cold 7x7 is left out: an export carries fields only.
	if len(out.Entries) != 1 || out.Entries[0].Key != "4x4" || out.Entries[0].R == nil {
		t.Fatalf("warmstate entries = %+v, want one for 4x4 with its warm R", out.Entries)
	}
	if hits, misses := s.cache.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("warmstate export moved cache stats: %d/%d -> %d/%d", hits0, misses0, hits, misses)
	}
}

// TestWarmChunksFitOneRequest: WarmChunks splits a key list, in order,
// into chunks /v1/warmstate answers, and the whole list, too large for one
// chunk, is refused.
func TestWarmChunksFitOneRequest(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	var keys []string
	for rows := 33; rows <= 64; rows++ {
		for cols := 33; cols <= 64; cols++ {
			keys = append(keys, fmt.Sprintf("%dx%d", rows, cols))
		}
	}
	get := func(keys []string) int {
		t.Helper()
		resp, err := hs.Client().Get(hs.URL + "/v1/warmstate?keys=" + strings.Join(keys, ","))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	chunks := WarmChunks(keys)
	if len(chunks) < 2 {
		t.Fatalf("%d keys up to 64x64 made %d chunk(s), want several", len(keys), len(chunks))
	}
	var joined []string
	for i, c := range chunks {
		if code := get(c); code != http.StatusOK {
			t.Errorf("chunk %d (%d keys): status %d, want 200", i, len(c), code)
		}
		joined = append(joined, c...)
	}
	if !slices.Equal(joined, keys) {
		t.Fatal("the chunks do not hold every key once, in order")
	}
	if code := get(keys); code != http.StatusBadRequest {
		t.Errorf("all %d keys in one request: status %d, want 400", len(keys), code)
	}
}

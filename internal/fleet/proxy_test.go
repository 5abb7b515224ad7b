package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"parma/internal/serve"
)

// computeWorker stubs a full parmad worker: /healthz plus a /v1/recover
// that labels its responses so the test can see which backend answered.
type computeWorker struct {
	name string
	srv  *httptest.Server
	hits atomic.Int64
	shed atomic.Bool  // answer 503 to compute requests
	down atomic.Bool  // fail /healthz; connection failures are simulated via srv.Close instead
	seen atomic.Value // last traceparent header
}

func newComputeWorker(t *testing.T, name string) *computeWorker {
	t.Helper()
	w := &computeWorker{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		if w.down.Load() {
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(serve.HealthResponse{Status: "ok", Workers: 1})
	})
	mux.HandleFunc("POST /v1/recover", func(rw http.ResponseWriter, r *http.Request) {
		w.seen.Store(r.Header.Get("traceparent"))
		if w.shed.Load() {
			rw.Header().Set("Retry-After", "1")
			rw.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(rw).Encode(serve.ErrorResponse{Error: "queue full"})
			return
		}
		w.hits.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"worker":%q}`, w.name)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

func newTestRouter(t *testing.T, policy string, workers ...*computeWorker) (*Router, []*Backend) {
	t.Helper()
	backends := make([]*Backend, len(workers))
	for i, w := range workers {
		backends[i] = NewBackend(w.name, w.srv.URL)
	}
	rt, err := New(Config{
		Backends:       backends,
		Policy:         policy,
		Attempts:       len(backends),
		AttemptTimeout: 2 * time.Second,
		Probe:          fastProbe(),
		RetryAfter:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	t.Cleanup(rt.Close)
	return rt, backends
}

func recoverBody(rows, cols int) []byte {
	return []byte(fmt.Sprintf(`{"rows":%d,"cols":%d,"field":[]}`, rows, cols))
}

func doRecover(t *testing.T, h http.Handler, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/recover", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestProxyRoutesAndLabels(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	rt, _ := newTestRouter(t, PolicyRoundRobin, w0)
	h := rt.Handler()

	rec := doRecover(t, h, recoverBody(8, 8))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Parma-Backend"); got != "w0" {
		t.Fatalf("X-Parma-Backend = %q", got)
	}
	if got := rec.Header().Get("X-Parma-Attempts"); got != "1" {
		t.Fatalf("X-Parma-Attempts = %q", got)
	}
	var reply struct {
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Worker != "w0" {
		t.Fatalf("reply = %s (err %v)", rec.Body.String(), err)
	}
	if w0.hits.Load() != 1 {
		t.Fatalf("worker hits = %d", w0.hits.Load())
	}
}

func TestProxyFailsOverOn503(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	w0.shed.Store(true)
	w1.shed.Store(true)
	rt, _ := newTestRouter(t, PolicyRoundRobin, w0, w1)
	h := rt.Handler()

	// Both shedding: the router relays a worker 503 with Retry-After.
	rec := doRecover(t, h, recoverBody(8, 8))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("shed reply missing Retry-After")
	}

	// One recovers: the same request must fail over to it.
	w1.shed.Store(false)
	rec = doRecover(t, h, recoverBody(8, 8))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d after recovery, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Parma-Backend"); got != "w1" {
		t.Fatalf("answered by %q, want w1", got)
	}
}

func TestProxyFailsOverOnConnectError(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	rt, backends := newTestRouter(t, PolicyAffinity, w0, w1)
	h := rt.Handler()

	// Find a geometry owned by w0 so the kill is on the preferred path.
	var key string
	var rows, cols int
	for r := 8; r < 64 && key == ""; r++ {
		k := fmt.Sprintf("%dx%d", r, r)
		if rt.Ring().Owner(k) == "w0" {
			key, rows, cols = k, r, r
		}
	}
	if key == "" {
		t.Fatal("no geometry owned by w0 in scan range")
	}

	w0.srv.Close() // hard kill: connect errors, not graceful sheds
	rec := doRecover(t, h, recoverBody(rows, cols))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Parma-Backend"); got != "w1" {
		t.Fatalf("answered by %q, want surviving w1", got)
	}
	if got := rec.Header().Get("X-Parma-Attempts"); got != "2" {
		t.Fatalf("X-Parma-Attempts = %q, want 2", got)
	}
	_ = backends
}

func TestProxyNoLiveBackends(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	// The only backend fails its health checks from the start, so the
	// running prober ejects it after the suspect window and never readmits
	// it (marking it dead by hand raced with a prober that saw it healthy).
	w0.down.Store(true)
	rt, backends := newTestRouter(t, PolicyRoundRobin, w0)
	waitFor(t, 5*time.Second, func() bool { return !backends[0].Probe().Alive }, "backend never ejected")
	rec := doRecover(t, rt.Handler(), recoverBody(8, 8))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("router shed missing Retry-After")
	}
	var er serve.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("shed body not an ErrorResponse: %s", rec.Body.String())
	}
}

func TestProxyRejectsBadBody(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	rt, _ := newTestRouter(t, PolicyRoundRobin, w0)
	h := rt.Handler()
	for _, body := range []string{`not json`, `{"rows":0,"cols":8}`, `{"rows":8}`} {
		rec := doRecover(t, h, []byte(body))
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("body %q: status = %d, want 400", body, rec.Code)
		}
	}
	if w0.hits.Load() != 0 {
		t.Fatal("invalid requests reached a backend")
	}
}

func TestProxyBreakerShortCircuits(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	w0.shed.Store(true)
	backends := []*Backend{NewBackend("w0", w0.srv.URL), NewBackend("w1", w1.srv.URL)}
	rt, err := New(Config{
		Backends:         backends,
		Policy:           PolicyRoundRobin,
		Attempts:         2,
		AttemptTimeout:   2 * time.Second,
		Probe:            fastProbe(),
		BreakerThreshold: 3,
		BreakerOpenFor:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range backends {
		b.setProbe(ProbeState{Alive: true, LastOK: time.Now()})
	}
	h := rt.Handler()

	// Trip w0's breaker with repeated sheds, then confirm it is skipped
	// without an attempt.
	for i := 0; i < 6; i++ {
		rec := doRecover(t, h, recoverBody(8, 8))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d (w1 should always answer)", i, rec.Code)
		}
	}
	if got := rt.breakers.State("w0"); got != "open" {
		t.Fatalf("w0 breaker = %q, want open", got)
	}
	w0.seen.Store("")
	before := w1.hits.Load()
	rec := doRecover(t, h, recoverBody(8, 8))
	if rec.Code != http.StatusOK || w1.hits.Load() != before+1 {
		t.Fatalf("open breaker did not short-circuit to w1 (status %d)", rec.Code)
	}
}

func TestRouterHealthzAndFleet(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	rt, backends := newTestRouter(t, PolicyAffinity, w0, w1)
	h := rt.Handler()

	waitFor(t, 2*time.Second, func() bool {
		return backends[0].Probe().Failures == 0 && backends[1].Probe().Failures == 0
	}, "both workers probed healthy")

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var fh FleetHealth
	if err := json.Unmarshal(rec.Body.Bytes(), &fh); err != nil {
		t.Fatal(err)
	}
	if fh.Status != "ok" || fh.Alive != 2 || fh.Total != 2 || len(fh.Backends) != 2 {
		t.Fatalf("healthz = %+v", fh)
	}
	share := 0.0
	for _, b := range fh.Backends {
		if b.Breaker != "closed" {
			t.Fatalf("breaker state = %q", b.Breaker)
		}
		share += b.RingShare
	}
	if share < 0.999 || share > 1.001 {
		t.Fatalf("ring shares sum to %f", share)
	}

	// /fleet?key=... reports the ownership chain.
	req = httptest.NewRequest(http.MethodGet, "/fleet?key=8x8", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var fr struct {
		Owner string   `json:"owner"`
		Chain []string `json:"chain"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if fr.Owner != rt.Ring().Owner("8x8") || len(fr.Chain) != 2 {
		t.Fatalf("/fleet reply = %+v", fr)
	}

	// All dead → /healthz reports down with 503.
	for _, b := range backends {
		b.setProbe(ProbeState{Alive: false})
	}
	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-dead healthz status = %d, want 503", rec.Code)
	}
}

func TestProxyAffinityPinsGeometry(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	w2 := newComputeWorker(t, "w2")
	rt, _ := newTestRouter(t, PolicyAffinity, w0, w1, w2)
	h := rt.Handler()

	owner := rt.Ring().Owner("16x16")
	for i := 0; i < 10; i++ {
		rec := doRecover(t, h, recoverBody(16, 16))
		if rec.Code != http.StatusOK {
			t.Fatalf("status = %d", rec.Code)
		}
		if got := rec.Header().Get("X-Parma-Backend"); got != owner {
			t.Fatalf("request %d went to %q, want pinned owner %q", i, got, owner)
		}
	}
}

// TestProxyAffinityReturnsHome: a spill lasts exactly as long as the
// overload that caused it. The prober is not started, so the loads are
// the ones set here.
func TestProxyAffinityReturnsHome(t *testing.T) {
	w0 := newComputeWorker(t, "w0")
	w1 := newComputeWorker(t, "w1")
	backends := []*Backend{NewBackend("w0", w0.srv.URL), NewBackend("w1", w1.srv.URL)}
	rt, err := New(Config{Backends: backends, Policy: PolicyAffinity, AttemptTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()
	owner := rt.Ring().Owner("16x16")
	for _, step := range []struct {
		ownerDepth int64
		wantOwner  bool
	}{{0, true}, {100, false}, {100, false}, {0, true}} {
		for _, b := range backends {
			p := ProbeState{Alive: true, LastOK: time.Now()}
			if b.Name == owner {
				p.QueueDepth = step.ownerDepth
			}
			b.setProbe(p)
		}
		rec := doRecover(t, h, recoverBody(16, 16))
		if got := rec.Header().Get("X-Parma-Backend"); rec.Code != http.StatusOK || (got == owner) != step.wantOwner {
			t.Fatalf("owner %s at queue depth %d: status %d from %q", owner, step.ownerDepth, rec.Code, got)
		}
	}
}

package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parma/internal/grid"
)

// requireRetryAfter asserts a shed response carries a usable Retry-After
// hint (an integer number of seconds >= 1).
func requireRetryAfter(t *testing.T, resp *http.Response) {
	t.Helper()
	h := resp.Header.Get("Retry-After")
	if h == "" {
		t.Fatalf("shed response (status %d) has no Retry-After header", resp.StatusCode)
	}
	secs, err := strconv.Atoi(h)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", h)
	}
}

// TestRetryAfterOnQueueFull: a 429 backpressure rejection tells the
// client when to retry.
func TestRetryAfterOnQueueFull(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:    1,
		QueueDepth: 1,
		RetryAfter: 2 * time.Second,
	})
	release := gateWorkers(t, s, true)
	_, z := workload(t, 4)
	req := RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)}

	// Occupy the queue: the first request parks at worker pickup.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	}()
	defer wg.Wait()
	defer release()
	waitQueueDepth(t, s, 1)

	// Fresh server, empty cache: no stale fallback exists, so the second
	// request must shed with 429 + Retry-After.
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "2" {
		t.Errorf("Retry-After = %q, want %q from Config.RetryAfter", resp.Header.Get("Retry-After"), "2")
	}
	requireRetryAfter(t, resp)
}

// TestRetryAfterOnDraining: the 503 a draining server returns is a shed
// too, and carries the hint.
func TestRetryAfterOnDraining(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	_, z := workload(t, 4)
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover",
		RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	requireRetryAfter(t, resp)
}

// TestStaleFallbackUnderSaturation: when the queue is full but the server
// has answered this geometry before, the request is served from the stale
// cache with degraded: true instead of shed.
func TestStaleFallbackUnderSaturation(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	release := gateWorkers(t, s, true)
	truth, z := workload(t, 4)
	arr := grid.New(4, 4)
	s.Cache().StoreWarmStart(arr, truth)
	s.Cache().StoreLastZ(arr, z)

	// Occupy the queue so admission fails for the probes below.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, hs.Client(), hs.URL+"/v1/recover",
			RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)})
	}()
	defer wg.Wait()
	defer release()
	waitQueueDepth(t, s, 1)

	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover",
		RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated recover with stale cache: status %d, want 200: %s", resp.StatusCode, body)
	}
	var rout RecoverResponse
	if err := json.Unmarshal(body, &rout); err != nil {
		t.Fatal(err)
	}
	if !rout.Degraded || rout.Cache != "stale" {
		t.Errorf("recover degraded=%v cache=%q, want degraded stale answer", rout.Degraded, rout.Cache)
	}
	got, err := fieldFromRows(4, 4, 64, rout.R)
	if err != nil {
		t.Fatal(err)
	}
	if d := got.MaxAbsDiff(truth); d != 0 {
		t.Errorf("stale recover differs from cached warm start by %g", d)
	}

	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/measure",
		MeasureRequest{Rows: 4, Cols: 4, R: rowsFromField(truth)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated measure with stale cache: status %d, want 200: %s", resp.StatusCode, body)
	}
	var mout MeasureResponse
	if err := json.Unmarshal(body, &mout); err != nil {
		t.Fatal(err)
	}
	if !mout.Degraded || mout.Cache != "stale" {
		t.Errorf("measure degraded=%v cache=%q, want degraded stale answer", mout.Degraded, mout.Cache)
	}
}

// stepBreakerClock freezes s's breaker clock and returns the function
// that moves it forward, so a test waits out an open window without
// sleeping. Install it before the first request.
func stepBreakerClock(s *Server) (advance func(time.Duration)) {
	base := time.Now()
	var elapsed atomic.Int64
	s.breakers.now = func() time.Time { return base.Add(time.Duration(elapsed.Load())) }
	return func(d time.Duration) { elapsed.Add(int64(d)) }
}

// TestBreakerOpensShedsAndRecovers walks one geometry keyspace through
// the full breaker lifecycle: consecutive deadline failures open it, an
// open breaker sheds (with Retry-After) when the cache is cold and serves
// stale when it is warm, and after the open window a half-open probe
// closes it again.
func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:          1,
		BreakerThreshold: 2,
		BreakerOpenFor:   300 * time.Millisecond,
	})
	gateWorkers(t, s, false)
	advance := stepBreakerClock(s)
	truth, z := workload(t, 5)
	doomed := RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z), DeadlineMS: 1}
	healthy := RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z)}

	// Two deadline-in-queue failures trip the breaker for 5x5.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", doomed)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("doomed request %d: status %d, want 503: %s", i, resp.StatusCode, body)
		}
	}

	// Open + cold cache: shed with Retry-After, never enters the queue.
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", healthy)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503: %s", resp.StatusCode, body)
	}
	requireRetryAfter(t, resp)

	// Open + warm cache: degraded stale answer instead of a shed.
	s.Cache().StoreWarmStart(grid.New(5, 5), truth)
	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/recover", healthy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("open breaker with stale cache: status %d, want 200: %s", resp.StatusCode, body)
	}
	var out RecoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Degraded || out.Cache != "stale" {
		t.Errorf("degraded=%v cache=%q, want degraded stale answer while open", out.Degraded, out.Cache)
	}

	// After the open window a probe goes through the real pipeline and its
	// success closes the breaker for good.
	advance(350 * time.Millisecond)
	for i := 0; i < 2; i++ {
		resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/recover", healthy)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-recovery request %d: status %d, want 200: %s", i, resp.StatusCode, body)
		}
		var probe RecoverResponse
		if err := json.Unmarshal(body, &probe); err != nil {
			t.Fatal(err)
		}
		if probe.Degraded {
			t.Errorf("post-recovery request %d still degraded (reason %q)", i, probe.DegradedReason)
		}
	}
}

// TestBreakerProbeSettlesOnAdmissionFailure: a half-open probe refused at
// admission (queue full) must settle the breaker — re-opening it — rather
// than leak probing=true, which would wedge the keyspace into shedding
// forever with no request ever allowed to retry it. Queue-full at probe
// time is the likely case: the breaker opened under the same saturation.
func TestBreakerProbeSettlesOnAdmissionFailure(t *testing.T) {
	s, hs := newTestServer(t, Config{
		Workers:          1,
		QueueDepth:       1,
		BreakerThreshold: 2,
		BreakerOpenFor:   150 * time.Millisecond,
	})
	release := gateWorkers(t, s, true)
	advance := stepBreakerClock(s)
	_, z5 := workload(t, 5)
	doomed := RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z5), DeadlineMS: 1}
	healthy := RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z5)}

	// Two deadline-in-queue failures trip the 5x5 breaker.
	for i := 0; i < 2; i++ {
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", doomed)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("doomed request %d: status %d, want 503: %s", i, resp.StatusCode, body)
		}
	}
	advance(200 * time.Millisecond) // open window elapses: next request probes

	// Saturate the queue with a different geometry so the 5x5 probe is
	// refused at admission, not by its own breaker.
	_, z4 := workload(t, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, hs.Client(), hs.URL+"/v1/recover",
			RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z4)})
	}()
	waitQueueDepth(t, s, 1)
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", healthy)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("refused probe: status %d, want 429: %s", resp.StatusCode, body)
	}
	release()
	wg.Wait()
	// The 4x4 reply is written before its worker frees the queue slot.
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d after the 4x4 request finished", s.QueueDepth())
		}
		runtime.Gosched()
	}

	// The refused probe re-opened the breaker; after another open window a
	// fresh probe must be admitted and close it for good.
	advance(200 * time.Millisecond)
	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/recover", healthy)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe after requeue window: status %d, want 200: %s", resp.StatusCode, body)
	}
	var out RecoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Degraded {
		t.Errorf("recovered probe still degraded (reason %q), want live answer", out.DegradedReason)
	}
}

package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hedgeWorker is a compute stub with a configurable service delay that
// records whether each request completed or was context-cancelled — the
// server-side witness that a losing hedge was reeled in.
type hedgeWorker struct {
	name      string
	srv       *httptest.Server
	delay     time.Duration
	started   atomic.Int64
	completed atomic.Int64
	cancelled atomic.Int64
}

func newHedgeWorker(t *testing.T, name string, delay time.Duration) *hedgeWorker {
	t.Helper()
	w := &hedgeWorker{name: name, delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprint(rw, `{"status":"ok","workers":1}`)
	})
	mux.HandleFunc("POST /v1/recover", func(rw http.ResponseWriter, r *http.Request) {
		// Drain the body so the server arms its client-disconnect watch;
		// a handler that never reads the body never sees r.Context()
		// cancelled on HTTP/1.1 (parmad always decodes the body first).
		_, _ = io.Copy(io.Discard, r.Body)
		w.started.Add(1)
		if w.delay > 0 {
			select {
			case <-time.After(w.delay):
			case <-r.Context().Done():
				w.cancelled.Add(1)
				return
			}
		}
		w.completed.Add(1)
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"worker":%q}`, w.name)
	})
	w.srv = httptest.NewServer(mux)
	t.Cleanup(w.srv.Close)
	return w
}

// hedgeRouter builds a started router with hedging enabled over the
// given workers.
func hedgeRouter(t *testing.T, budget float64, workers ...*hedgeWorker) *Router {
	t.Helper()
	backends := make([]*Backend, len(workers))
	for i, w := range workers {
		backends[i] = NewBackend(w.name, w.srv.URL)
	}
	rt, err := New(Config{
		Backends:       backends,
		Policy:         PolicyAffinity,
		AttemptTimeout: 10 * time.Second,
		// Hedging, not ejection, is under test: a probe that a loaded race
		// run delays past fastProbe's 40ms must not eject a healthy worker.
		Probe:         ProberConfig{Every: 10 * time.Millisecond, SuspectAfter: 10 * time.Second, Timeout: 5 * time.Second},
		HedgeBudget:   budget,
		HedgeDelayMin: time.Millisecond,
		HedgeDelayMax: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	startRouter(t, rt)
	return rt
}

// startRouter starts rt with a test-scoped lifecycle.
func startRouter(t *testing.T, rt *Router) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	rt.Start(ctx)
	t.Cleanup(rt.Close)
}

// keyOwnedBy finds a geometry key whose ring owner is name, so a test can
// aim traffic at a specific primary deterministically.
func keyOwnedBy(t *testing.T, rt *Router, name string) string {
	t.Helper()
	for n := 2; n < 200; n++ {
		key := fmt.Sprintf("%dx%d", n, n)
		if rt.Ring().Owner(key) == name {
			return key
		}
	}
	t.Fatalf("no geometry key owned by %s in 2x2..199x199", name)
	return ""
}

// TestHedgeWinsAndCancelsLoser: with a slow primary and a fast ring
// successor, the hedge launches after the delay, the fast worker's reply
// wins, exactly one response reaches the client, and the loser's request
// context is cancelled server-side.
func TestHedgeWinsAndCancelsLoser(t *testing.T) {
	slow := newHedgeWorker(t, "ws", 2*time.Second)
	fast := newHedgeWorker(t, "wf", 0)
	rt := hedgeRouter(t, 1.0, slow, fast)
	key := keyOwnedBy(t, rt, "ws")

	var rows, cols int
	fmt.Sscanf(key, "%dx%d", &rows, &cols)
	rec := doRecover(t, rt.Handler(), recoverBody(rows, cols))
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Parma-Hedged"); got != "1" {
		t.Errorf("X-Parma-Hedged = %q, want 1", got)
	}
	if got := rec.Header().Get("X-Parma-Backend"); got != "wf" {
		t.Errorf("winner = %q, want the fast successor wf", got)
	}
	var reply struct {
		Worker string `json:"worker"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil || reply.Worker != "wf" {
		t.Fatalf("body is not exactly one wf reply: %s (err %v)", rec.Body.String(), err)
	}
	waitFor(t, 5*time.Second, func() bool { return slow.cancelled.Load() >= 1 },
		"losing attempt was never context-cancelled on the slow worker")
	eligible, hedged := rt.hedger.stats()
	if eligible != 1 || hedged != 1 {
		t.Errorf("hedger stats = (%d eligible, %d hedged), want (1, 1)", eligible, hedged)
	}
}

// TestHedgeBudgetInvariant: hedged <= frac x eligible holds at every
// instant under concurrent traffic, and refused claims leave the
// counters consistent.
func TestHedgeBudgetInvariant(t *testing.T) {
	h := newHedger(0.1, time.Millisecond, 5*time.Millisecond)
	var granted atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h.sawRequest()
				h.observe(float64(i%40) + float64(g))
				_ = h.delay()
				if h.tryHedge() {
					granted.Add(1)
				}
				eligible, hedged := h.stats()
				if float64(hedged) > 0.1*float64(eligible) {
					t.Errorf("budget broken mid-run: %d hedged of %d eligible", hedged, eligible)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	eligible, hedged := h.stats()
	if granted.Load() != hedged {
		t.Errorf("granted %d hedges but counter says %d", granted.Load(), hedged)
	}
	if float64(hedged) > 0.1*float64(eligible) {
		t.Errorf("final budget broken: %d hedged of %d eligible", hedged, eligible)
	}
	if hedged == 0 {
		t.Error("budget admitted no hedges over 4000 eligible requests")
	}
}

// TestHedgeBudgetBoundsLaunches: end-to-end, a small budget keeps hedge
// launches at frac x traffic even when every request is slow enough to
// want one.
func TestHedgeBudgetBoundsLaunches(t *testing.T) {
	slow := newHedgeWorker(t, "ws", 40*time.Millisecond)
	fast := newHedgeWorker(t, "wf", 0)
	rt := hedgeRouter(t, 0.2, slow, fast)
	key := keyOwnedBy(t, rt, "ws")
	var rows, cols int
	fmt.Sscanf(key, "%dx%d", &rows, &cols)

	const n = 20
	for i := 0; i < n; i++ {
		if rec := doRecover(t, rt.Handler(), recoverBody(rows, cols)); rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
	}
	eligible, hedged := rt.hedger.stats()
	if eligible != n {
		t.Fatalf("eligible = %d, want %d", eligible, n)
	}
	if float64(hedged) > 0.2*float64(eligible) {
		t.Errorf("hedged %d of %d exceeds the 0.2 budget", hedged, eligible)
	}
	if hedged == 0 {
		t.Error("no hedges launched despite a consistently slow primary")
	}
}

// TestHedgeNoGoroutineLeak: a long hedged run returns to the baseline
// goroutine count — no dangling attempt goroutines, no leaked timers.
func TestHedgeNoGoroutineLeak(t *testing.T) {
	w0 := newHedgeWorker(t, "w0", 0)
	w1 := newHedgeWorker(t, "w1", 0)
	rt := hedgeRouter(t, 0.5, w0, w1)
	h := rt.Handler()

	n := 10000
	if testing.Short() {
		n = 500
	}
	baseline := runtime.NumGoroutine()
	var wg sync.WaitGroup
	sem := make(chan struct{}, 16)
	fail := atomic.Int64{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rec := doRecover(t, h, recoverBody(6, 6))
			if rec.Code != http.StatusOK {
				fail.Add(1)
			}
		}()
	}
	wg.Wait()
	if fail.Load() > 0 {
		t.Fatalf("%d of %d requests failed", fail.Load(), n)
	}
	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+12
	}, fmt.Sprintf("goroutines never settled near baseline %d after %d hedged requests (now %d)",
		baseline, n, runtime.NumGoroutine()))
}

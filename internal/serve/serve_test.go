package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"parma/internal/circuit"
	"parma/internal/gen"
	"parma/internal/grid"
	"parma/internal/obs"
)

// newTestServer builds a server + httptest frontend that drains when the
// test ends.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		hs.Close()
	})
	return s, hs
}

// gateWorkers installs the saturation tests' beforeRun hook on s; call it
// before the first request. A task whose deadline is under a second away
// waits it out at worker pickup, so its 503 is certain. While hold is set,
// every other task parks at pickup until release is called, which holds the
// queue at capacity without a wall-clock stall. Cleanup releases.
func gateWorkers(t *testing.T, s *Server, hold bool) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	if !hold {
		release()
	}
	t.Cleanup(release)
	s.beforeRun = func(tk *task) {
		if dl, ok := tk.ctx.Deadline(); ok && dl.Sub(tk.enq) < time.Second {
			<-tk.ctx.Done()
			return
		}
		<-ch
	}
	return release
}

// waitQueueDepth returns once n requests are admitted and unfinished.
func waitQueueDepth(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.QueueDepth() < n {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth %d never reached %d", s.QueueDepth(), n)
		}
		runtime.Gosched()
	}
}

// workload returns a ground-truth field and its measured Z for an n x n
// array.
func workload(t *testing.T, n int) (*grid.Field, *grid.Field) {
	t.Helper()
	r, z, err := gen.Measurements(gen.Config{Rows: n, Cols: n, Seed: int64(n)})
	if err != nil {
		t.Fatal(err)
	}
	return r, z
}

func postJSON(t *testing.T, client *http.Client, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestRecoverEndToEnd: a recover round trip returns the ground-truth field
// and the second identical request warm-starts from the cache.
func TestRecoverEndToEnd(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 5)

	req := RecoverRequest{Rows: 5, Cols: 5, Z: rowsFromField(z), Tol: 1e-8}
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != 200 {
		t.Fatalf("first recover: status %d: %s", resp.StatusCode, body)
	}
	var out RecoverResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "miss" {
		t.Errorf("first recover cache = %q, want miss", out.Cache)
	}
	rec, err := fieldFromRows(5, 5, 64, out.R)
	if err != nil {
		t.Fatalf("response field invalid: %v", err)
	}
	if d := rec.MaxAbsDiff(truth); d > 1 { // kΩ scale: 1 kΩ of ~2000–11000 is ~0.01%
		t.Errorf("recovered field off by %g kΩ", d)
	}

	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != 200 {
		t.Fatalf("second recover: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache != "hit" {
		t.Errorf("second recover cache = %q, want warm-start hit", out.Cache)
	}
	if out.Iterations > 3 {
		t.Errorf("warm-started recover took %d iterations, expected a handful", out.Iterations)
	}
}

// TestMeasureFactorizationReuse: identical measure requests share one
// Laplacian factorization, and the result matches the direct simulator.
func TestMeasureFactorizationReuse(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 2})
	truth, _ := workload(t, 6)
	a := grid.New(6, 6)
	want, err := circuit.MeasureAll(a, truth)
	if err != nil {
		t.Fatal(err)
	}

	req := MeasureRequest{Rows: 6, Cols: 6, R: rowsFromField(truth)}
	for i, wantCache := range []string{"miss", "hit", "hit"} {
		resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/measure", req)
		if resp.StatusCode != 200 {
			t.Fatalf("measure %d: status %d: %s", i, resp.StatusCode, body)
		}
		var out MeasureResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cache != wantCache {
			t.Errorf("measure %d cache = %q, want %q", i, out.Cache, wantCache)
		}
		got, err := fieldFromRows(6, 6, 64, out.Z)
		if err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Errorf("measure %d differs from direct simulation by %g", i, d)
		}
	}
	if hits, _ := s.Cache().Stats(); hits < 2 {
		t.Errorf("cache hits = %d, want >= 2", hits)
	}
}

// TestValidation: malformed bodies and fields are rejected with 400 before
// touching the queue.
func TestValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"zero geometry", `{"rows":0,"cols":4,"z":[]}`},
		{"oversized", `{"rows":1000,"cols":1000,"z":[]}`},
		{"ragged", `{"rows":2,"cols":2,"z":[[1,2],[3]]}`},
		{"non-positive", `{"rows":1,"cols":1,"z":[[0]]}`},
		{"zero z entry", `{"rows":2,"cols":2,"z":[[1,2],[0,3]]}`},
		{"negative z entry", `{"rows":2,"cols":2,"z":[[1,2],[3,-4]]}`},
		{"non-finite", `{"rows":1,"cols":1,"z":[[1e999]]}`},
		{"negative tol", `{"rows":1,"cols":1,"z":[[5]],"tol":-1}`},
		{"negative max_iter", `{"rows":1,"cols":1,"z":[[5]],"max_iter":-5}`},
	}
	for _, tc := range cases {
		resp, err := hs.Client().Post(hs.URL+"/v1/recover", "application/json",
			bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestAdmissionControl: with a tiny queue and the worker parked, excess
// concurrent requests are rejected with 429 while admitted ones still
// complete.
func TestAdmissionControl(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	release := gateWorkers(t, s, true)
	_, z := workload(t, 4)
	req := RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)}

	const n = 10
	replies := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			status := 0 // sent even if postJSON fails the test
			defer func() { replies <- status }()
			resp, _ := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
			status = resp.StatusCode
		}()
	}
	// A parked worker finishes nothing, so the first reply is a rejection;
	// only then may the admitted requests run.
	statuses := []int{<-replies}
	release()
	for len(statuses) < n {
		statuses = append(statuses, <-replies)
	}
	ok, rejected := 0, 0
	for _, st := range statuses {
		switch st {
		case 200:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("unexpected status %d", st)
		}
	}
	if ok == 0 || rejected == 0 {
		t.Errorf("want both admissions and rejections, got %d ok / %d rejected", ok, rejected)
	}
}

// TestDeadlineInQueue: a request whose deadline expires while it waits for
// a worker gets 503, not a hung connection.
func TestDeadlineInQueue(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	gateWorkers(t, s, false)
	_, z := workload(t, 4)
	req := RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z), DeadlineMS: 20}
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
}

// TestWorkerRunsInAdmissionOrder: tasks of different geometries run in the
// order they were admitted.
func TestWorkerRunsInAdmissionOrder(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	release := gateWorkers(t, s, true)
	var order []string // appended by the single worker only
	hold := s.beforeRun
	s.beforeRun = func(tk *task) {
		hold(tk)
		order = append(order, geomKey(tk.arr))
	}

	var tasks []*task
	for _, n := range []int{6, 4, 5} {
		truth, _ := workload(t, n)
		tk := &task{kind: kindMeasure, ctx: context.Background(), arr: grid.New(n, n),
			field: truth, enq: time.Now(), done: make(chan taskResult, 1)}
		if err := s.admit(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
	release()
	for i, tk := range tasks {
		if res := <-tk.done; res.err != nil {
			t.Fatalf("task %d: %v", i, res.err)
		}
	}
	// One worker starts a task only after finishing the one before it, so
	// the start order is the completion order.
	want := []string{"6x6", "4x4", "5x5"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("ran in order %v, admitted in order %v", order, want)
		}
	}
}

// TestDrain: draining finishes every admitted request and rejects new ones
// with 503; healthz flips to draining.
func TestDrain(t *testing.T) {
	s := NewServer(Config{Workers: 1})
	release := gateWorkers(t, s, true)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	_, z := workload(t, 4)
	req := RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)}

	const n = 3
	statuses := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, _ := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
			statuses[i] = resp.StatusCode
		}(i)
	}
	waitQueueDepth(t, s, n)
	// With the worker parked, draining cannot finish: it must wait for the
	// admitted requests rather than drop them.
	stopped, stop := context.WithCancel(context.Background())
	stop()
	if err := s.Drain(stopped); err == nil {
		t.Fatal("drain returned while admitted requests were still queued")
	}
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	for i, st := range statuses {
		if st != 200 {
			t.Errorf("request %d finished with %d during drain, want 200 (never dropped)", i, st)
		}
	}

	resp, _ := postJSON(t, hs.Client(), hs.URL+"/v1/recover", req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-drain admission status %d, want 503", resp.StatusCode)
	}
	hresp, body := getURL(t, hs.Client(), hs.URL+"/healthz")
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz status %d, want 503 while draining: %s", hresp.StatusCode, body)
	}
}

func getURL(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// TestHealthzAndMetrics: the observability endpoints expose queue and
// cache metrics from the shared registry.
func TestHealthzAndMetrics(t *testing.T) {
	rec := obs.NewRecorder()
	obs.Enable(rec)
	defer obs.Disable()
	_, hs := newTestServer(t, Config{Workers: 1, Recorder: rec})

	resp, body := getURL(t, hs.Client(), hs.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h HealthResponse
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("healthz status %q, want ok", h.Status)
	}

	truth, _ := workload(t, 4)
	postJSON(t, hs.Client(), hs.URL+"/v1/measure", MeasureRequest{Rows: 4, Cols: 4, R: rowsFromField(truth)})
	postJSON(t, hs.Client(), hs.URL+"/v1/measure", MeasureRequest{Rows: 4, Cols: 4, R: rowsFromField(truth)})

	// The machine-readable load fields are the fleet router's probe
	// surface: queue depth, in-flight, capacity, and cache counters must
	// be present without parsing Prometheus text.
	_, body = getURL(t, hs.Client(), hs.URL+"/healthz")
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.QueueCapacity <= 0 || h.Workers != 1 {
		t.Errorf("healthz capacity/workers = %d/%d, want >0/1", h.QueueCapacity, h.Workers)
	}
	if h.QueueDepth != 0 || h.InFlight != 0 {
		t.Errorf("idle healthz queue/in-flight = %d/%d, want 0/0", h.QueueDepth, h.InFlight)
	}
	if h.Draining {
		t.Error("healthz draining on a live server")
	}
	if h.CacheMisses < 1 || h.CacheHits < 1 {
		t.Errorf("healthz cache hits/misses = %d/%d after a repeat request, want >=1/>=1", h.CacheHits, h.CacheMisses)
	}
	for _, b := range h.Breakers {
		if b.State != "closed" {
			t.Errorf("healthz breaker %s = %q, want closed", b.Key, b.State)
		}
	}

	resp, body = getURL(t, hs.Client(), hs.URL+"/metrics")
	if resp.StatusCode != 200 {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"parma_serve_queue_depth",
		"parma_serve_stage_queue_ms",
		"parma_serve_cache_hits",
		"parma_serve_requests_measure 2",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestCanceledClient: a client that walks away mid-recovery stops burning
// CPU — the worker observes the dead context and abandons the task.
func TestCanceledClient(t *testing.T) {
	s, hs := newTestServer(t, Config{Workers: 1})
	_, z := workload(t, 6)
	body, err := json.Marshal(RecoverRequest{Rows: 6, Cols: 6, Z: rowsFromField(z), Tol: 1e-14, MaxIter: 60})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	reqHTTP, err := http.NewRequestWithContext(ctx, "POST", hs.URL+"/v1/recover", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := hs.Client().Do(reqHTTP); err == nil {
		resp.Body.Close()
	}
	// Queue must drain back to zero: the worker noticed the cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for s.QueueDepth() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth stuck at %d after client cancellation", s.QueueDepth())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestConcurrentMixedLoad hammers both endpoints from many goroutines —
// primarily a -race exercise over queue, cache, and workers.
func TestConcurrentMixedLoad(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 4, QueueDepth: 256})
	truths := map[int]*grid.Field{}
	zs := map[int]*grid.Field{}
	for _, n := range []int{4, 5} {
		truths[n], zs[n] = workload(t, n)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				n := 4 + (g+i)%2
				if i%2 == 0 {
					resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/measure",
						MeasureRequest{Rows: n, Cols: n, R: rowsFromField(truths[n])})
					if resp.StatusCode != 200 {
						t.Errorf("measure: %d: %s", resp.StatusCode, body)
					}
				} else {
					resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover",
						RecoverRequest{Rows: n, Cols: n, Z: rowsFromField(zs[n]), Tol: 1e-6})
					if resp.StatusCode != 200 {
						t.Errorf("recover: %d: %s", resp.StatusCode, body)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

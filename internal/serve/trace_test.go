package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"parma/internal/obs"
)

// TestTimingsAttribution: every pipeline response carries a stage
// breakdown whose parts sum to the measured wall time (the acceptance bar
// is 10%, plus a small absolute slack for sub-millisecond runs).
func TestTimingsAttribution(t *testing.T) {
	_, hs := newTestServer(t, Config{Workers: 2})
	truth, z := workload(t, 4)

	checkTimings := func(tm *Timings, label string) {
		t.Helper()
		if tm == nil {
			t.Fatalf("%s: response has no timings", label)
		}
		for stage, v := range map[string]float64{
			"queue": tm.QueueMS, "factor": tm.FactorMS,
			"solve": tm.SolveMS, "total": tm.TotalMS,
		} {
			if v < 0 {
				t.Errorf("%s: negative %s_ms %g", label, stage, v)
			}
		}
		sum := tm.QueueMS + tm.FactorMS + tm.SolveMS
		if slack := 0.1*tm.TotalMS + 2; math.Abs(tm.TotalMS-sum) > slack {
			t.Errorf("%s: stages sum to %.3fms but total is %.3fms (slack %.3fms): %+v",
				label, sum, tm.TotalMS, slack, tm)
		}
	}

	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover",
		RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d: %s", resp.StatusCode, body)
	}
	var rr RecoverResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	checkTimings(rr.Timings, "recover")
	if rr.Timings.FactorMS <= 0 {
		t.Errorf("recover attributed no factorization time: %+v", rr.Timings)
	}

	resp, body = postJSON(t, hs.Client(), hs.URL+"/v1/measure",
		MeasureRequest{Rows: 4, Cols: 4, R: rowsFromField(truth)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d: %s", resp.StatusCode, body)
	}
	var mr MeasureResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	checkTimings(mr.Timings, "measure")
}

// TestTracedRecoverBuildsConnectedTree: one traced recover request must
// yield exactly one connected span tree rooted at the HTTP handler and
// reaching the queue, the worker and the solver.
func TestTracedRecoverBuildsConnectedTree(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()
	_, hs := newTestServer(t, Config{Workers: 1})
	_, z := workload(t, 4)

	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/recover",
		RecoverRequest{Rows: 4, Cols: 4, Z: rowsFromField(z)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recover: %d: %s", resp.StatusCode, body)
	}
	var rr RecoverResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.TraceID == "" {
		t.Fatal("traced response carries no trace_id")
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, rr.TraceID) {
		t.Fatalf("traceparent header %q does not carry trace %s", tp, rr.TraceID)
	}

	// The handler's root span ends just after the response is written, so
	// poll briefly rather than race it.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var buf bytes.Buffer
		if err := r.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		sum, err := obs.ValidateDistributedTrace(buf.Bytes())
		if err == nil && len(sum.Trees) == 1 && sum.Trees[0].Root == "serve/http/recover" {
			tree := sum.Trees[0]
			if tree.Trace != rr.TraceID {
				t.Fatalf("tree trace %s, response said %s", tree.Trace, rr.TraceID)
			}
			for _, want := range []string{"serve/queue", "serve/recover", "solver/recover"} {
				found := false
				for _, n := range tree.Names {
					found = found || n == want
				}
				if !found {
					t.Fatalf("span tree %v missing %q", tree.Names, want)
				}
			}
			// Request root + queue span + serve/recover + solver/recover.
			if tree.Spans < 4 {
				t.Fatalf("tree has only %d spans", tree.Spans)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connected tree (err %v, trees %+v)", err, sum.Trees)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTraceparentAdoption: a client-supplied traceparent is adopted — the
// response continues the client's trace with a fresh server span id.
func TestTraceparentAdoption(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()
	_, hs := newTestServer(t, Config{Workers: 1})

	tc := obs.TraceContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	req, err := http.NewRequest(http.MethodGet, hs.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", tc.Traceparent())
	resp, err := hs.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	got, err := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", resp.Header.Get("traceparent"), err)
	}
	if got.Trace != tc.Trace {
		t.Fatalf("server minted trace %s instead of adopting %s", got.Trace, tc.Trace)
	}
	if got.Span == tc.Span {
		t.Fatal("server echoed the client span id instead of starting its own span")
	}
}

// nopWriter is an allocation-free ResponseWriter for hot-path benchmarks.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nopWriter) WriteHeader(int)             {}

// TestInstrumentDisabledPathAllocatesNothing guards the acceptance bar:
// with recording off, the instrumentation wrapper
// adds zero allocations to the serve hot path.
func TestInstrumentDisabledPathAllocatesNothing(t *testing.T) {
	if obs.Enabled() {
		t.Fatal("recorder unexpectedly enabled")
	}
	h := obs.InstrumentHTTP("serve", "bench", func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/bench", nil)
	w := &nopWriter{h: http.Header{}}
	if n := testing.AllocsPerRun(200, func() { h(w, req) }); n != 0 {
		t.Fatalf("disabled instrument path allocates %v per request, want 0", n)
	}
}

func BenchmarkInstrumentDisabled(b *testing.B) {
	h := obs.InstrumentHTTP("serve", "bench", func(http.ResponseWriter, *http.Request) {})
	req := httptest.NewRequest(http.MethodGet, "/bench", nil)
	w := &nopWriter{h: http.Header{}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h(w, req)
	}
}

// TestMetricsRED: /metrics exposes per-endpoint and per-geometry RED
// series, and no SLO burn-rate gauges: the RED latency histograms are the
// latency record.
func TestMetricsRED(t *testing.T) {
	r := obs.NewRecorder()
	obs.Enable(r)
	defer obs.Disable()
	_, hs := newTestServer(t, Config{Workers: 1, Recorder: r})
	truth, _ := workload(t, 4)
	resp, body := postJSON(t, hs.Client(), hs.URL+"/v1/measure",
		MeasureRequest{Rows: 4, Cols: 4, R: rowsFromField(truth)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure: %d: %s", resp.StatusCode, body)
	}

	resp, body = getURL(t, hs.Client(), hs.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	for _, want := range []string{
		"parma_serve_red_measure_requests 1",
		"parma_serve_red_measure_latency_ms",
		"parma_serve_red_geom_4x4_requests 1",
		"parma_serve_stage_solve_ms",
	} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
	if bytes.Contains(body, []byte("parma_slo_")) {
		t.Errorf("metrics output carries SLO series:\n%s", body)
	}
}

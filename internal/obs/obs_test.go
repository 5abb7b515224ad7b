package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisabledSpansAreInert(t *testing.T) {
	Disable()
	if Enabled() {
		t.Fatal("recorder enabled at start")
	}
	sp := StartSpan("x")
	if sp.Active() {
		t.Fatal("disabled span claims active")
	}
	sp.End(F("a", 1)) // must not panic
	Add("c", 3)
	SetGauge("g", 1)
	Observe("h", 1)
	if NewTrack("t") != AnonTrack {
		t.Fatal("disabled NewTrack returned a real track")
	}
	GetCounter("c").Inc() // nil-safe
}

func TestDisabledHotPathDoesNotAllocate(t *testing.T) {
	Disable()
	allocs := testing.AllocsPerRun(100, func() {
		sp := StartSpan("hot")
		sp.End(F("k", 1), I("i", 2))
		Add("ctr", 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %v per op", allocs)
	}
}

func TestSpanRecordingAndRollups(t *testing.T) {
	r := NewRecorder()
	tr := r.NewTrack("worker 0")
	sp := r.StartOn(tr, "outer")
	inner := r.StartOn(tr, "inner")
	time.Sleep(time.Millisecond)
	inner.End(F("residual", 0.5), S("phase", "a"))
	sp.End()

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("recorded %d events, want 2", len(events))
	}
	if events[0].Name != "outer" {
		t.Fatalf("events not sorted parent-first: %v", events[0].Name)
	}
	if events[1].Dur < time.Millisecond {
		t.Fatalf("inner span too short: %v", events[1].Dur)
	}
	if got := r.TrackName(tr); got != "worker 0" {
		t.Fatalf("track name %q", got)
	}

	rollups := r.Rollups()
	if len(rollups) != 2 {
		t.Fatalf("rollups %v", rollups)
	}
	for _, ro := range rollups {
		if ro.Count != 1 || ro.Total <= 0 {
			t.Fatalf("bad rollup %+v", ro)
		}
	}
}

func TestConcurrentSpansAndCounters(t *testing.T) {
	r := NewRecorder()
	Enable(r)
	defer Disable()
	const workers, perWorker = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			track := NewTrack("w")
			for i := 0; i < perWorker; i++ {
				sp := StartOn(track, "work")
				Add("ops", 1)
				Observe("latency", float64(i))
				SetGauge("last", float64(i))
				sp.End(I("i", i))
			}
		}(w)
	}
	wg.Wait()
	if got := len(r.Events()); got != workers*perWorker {
		t.Fatalf("recorded %d events, want %d", got, workers*perWorker)
	}
	if got := r.Registry().Counter("ops").Value(); got != workers*perWorker {
		t.Fatalf("ops counter %d", got)
	}
	h := r.Registry().Histogram("latency")
	if h.Count() != workers*perWorker || h.Max() != perWorker-1 {
		t.Fatalf("histogram count=%d max=%g", h.Count(), h.Max())
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{0.001, 1, 10, 1000} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 0.001 || h.Max() != 1000 {
		t.Fatalf("min %g max %g", h.Min(), h.Max())
	}
	if h.Sum() != 1011.001 {
		t.Fatalf("sum %g", h.Sum())
	}
	if m := h.Mean(); m < 252 || m > 253 {
		t.Fatalf("mean %g", m)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b").Add(2)
	reg.Counter("a").Add(1)
	reg.Gauge("c").Set(3.5)
	reg.Histogram("d").Observe(1)
	snap := reg.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot %v", snap)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Name < snap[i-1].Name {
			t.Fatalf("snapshot unsorted: %v", snap)
		}
	}
	if snap[0].Name != "a" || snap[0].Count != 1 {
		t.Fatalf("first entry %+v", snap[0])
	}
}

func TestPrometheusAndSummaryOutput(t *testing.T) {
	r := NewRecorder()
	r.Registry().Counter("mpi/rank0/bytes_sent").Add(128)
	r.Registry().Gauge("runtime/goroutines").Set(4)
	sp := r.StartSpan("formation/pair")
	sp.End()

	var prom bytes.Buffer
	if err := r.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	for _, want := range []string{
		"parma_mpi_rank0_bytes_sent 128",
		"# TYPE parma_runtime_goroutines gauge",
		"parma_span_formation_pair_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}

	var sum bytes.Buffer
	if err := r.WriteSummary(&sum); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sum.String(), "formation/pair") ||
		!strings.Contains(sum.String(), "mpi/rank0/bytes_sent") {
		t.Fatalf("summary missing entries:\n%s", sum.String())
	}
}

func TestRuntimeSampler(t *testing.T) {
	r := NewRecorder()
	s := NewRuntimeSampler(r, time.Millisecond)
	s.Start()
	time.Sleep(5 * time.Millisecond)
	s.Stop()
	if r.Registry().Gauge("runtime/heap_inuse_bytes").Value() <= 0 {
		t.Fatal("heap gauge never sampled")
	}
	if r.Registry().Histogram("runtime/heap_inuse_samples").Count() == 0 {
		t.Fatal("heap histogram never sampled")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := &Histogram{}
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	// 90 fast observations in the 10–100 decade, 10 slow in 100–1000.
	for i := 0; i < 90; i++ {
		h.Observe(20)
	}
	for i := 0; i < 10; i++ {
		h.Observe(500)
	}
	p50 := h.Quantile(0.5)
	if p50 < 10 || p50 >= 100 {
		t.Fatalf("p50 = %g, want within the fast decade [10, 100)", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 100 || p99 > 500 {
		t.Fatalf("p99 = %g, want within the slow decade (clamped at max 500)", p99)
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Fatal("extreme quantiles should clamp to min/max")
	}
	if p50 > p99 {
		t.Fatalf("quantiles not monotone: p50 %g > p99 %g", p50, p99)
	}
	var nilH *Histogram
	if nilH.Quantile(0.5) != 0 {
		t.Fatal("nil histogram quantile should be 0")
	}
}

func TestPrometheusQuantileLines(t *testing.T) {
	r := NewRecorder()
	h := r.Registry().Histogram("serve/latency_ms")
	for i := 0; i < 99; i++ {
		h.Observe(15)
	}
	h.Observe(700)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE parma_serve_latency_ms summary",
		"parma_serve_latency_ms_count 100",
		`parma_serve_latency_ms{quantile="0.5"}`,
		`parma_serve_latency_ms{quantile="0.9"}`,
		`parma_serve_latency_ms{quantile="0.99"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// An empty histogram must not emit quantile lines (NaN-free output).
	r2 := NewRecorder()
	r2.Registry().Histogram("empty")
	buf.Reset()
	if err := r2.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `parma_empty{quantile`) {
		t.Fatalf("empty histogram emitted quantiles:\n%s", buf.String())
	}
}

package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedianAndQuantile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %g, want 0", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g, want 2.5", got)
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.95); !near(got, 4.8) {
		t.Errorf("p95 = %g, want 4.8", got)
	}
	if xs[0] != 5 {
		t.Error("quantile reordered its input")
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, tc := range []struct{ n, want int }{
		{6, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99},
	} {
		p, _, n := tailPercentile(mk(tc.n))
		if p != tc.want || n != tc.n {
			t.Errorf("n=%d: percentile p%d (n=%d), want p%d", tc.n, p, n, tc.want)
		}
	}
}

func TestSliceThroughputIgnoresOneBadSlice(t *testing.T) {
	// 100 operations at 10/s, with a 5 s stall in the middle: the mean rate
	// drops by a third, the slice median does not move.
	var ends []time.Duration
	at := time.Duration(0)
	for i := 0; i < 100; i++ {
		at += 100 * time.Millisecond
		if i == 50 {
			at += 5 * time.Second
		}
		ends = append(ends, at)
	}
	if got := sliceThroughput(ends); !near(got, 10) {
		t.Errorf("slice throughput = %g, want 10", got)
	}
	// Fewer operations than slices: one slice per operation.
	few := []time.Duration{2 * time.Second, 4 * time.Second, 7 * time.Second}
	if got := sliceThroughput(few); !near(got, 0.5) {
		t.Errorf("three-operation throughput = %g, want 0.5", got)
	}
	if got := sliceThroughput(nil); got != 0 {
		t.Errorf("empty throughput = %g, want 0", got)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	parent := interval{ms(0), ms(100)}
	children := []interval{{ms(10), ms(30)}, {ms(20), ms(50)}, {ms(90), ms(120)}, {ms(200), ms(300)}}
	// Union inside the parent: [10,50) and [90,100) = 50 ms.
	if got := selfTime(parent, children); got != ms(50) {
		t.Errorf("self time = %v, want 50ms", got)
	}
	if got := selfTime(parent, nil); got != ms(100) {
		t.Errorf("childless self time = %v, want 100ms", got)
	}
}

func TestLayerSelfSecondsAndCoverage(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	spans := []span{
		{name: "op", layer: "harness", start: ms(0), end: ms(100), parent: -1},
		{name: "call", layer: "solver", start: ms(10), end: ms(90), parent: 0},
		{name: "factor", layer: "circuit", start: ms(10), end: ms(30), parent: 1},
		{name: "op", layer: "harness", start: ms(150), end: ms(200), parent: -1},
	}
	self := layerSelfSeconds(spans)
	for layer, want := range map[string]float64{"harness": 0.07, "solver": 0.06, "circuit": 0.02} {
		if !near(self[layer], want) {
			t.Errorf("%s self = %g s, want %g", layer, self[layer], want)
		}
	}
	if got := coverage(spans, interval{ms(0), ms(200)}); !near(got, 0.75) {
		t.Errorf("coverage = %g, want 0.75", got)
	}
}

func TestCheckNames(t *testing.T) {
	if err := checkNames([]string{"ops_per_s", "serve.queue_ms_p50", "form-64", "9lives"}); err != nil {
		t.Errorf("valid names rejected: %v", err)
	}
	for _, bad := range [][]string{{"has space"}, {""}, {"_leading"}, {"é"}, {"a", "a"}, {string(make([]byte, 65))}} {
		if checkNames(bad) == nil {
			t.Errorf("names %q accepted", bad)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"parma/internal/obs"
)

// span is one call from the harness into a layer's public surface (or, for
// served requests, a stage rebuilt from the reply's timings). Spans of one
// operation share op; parent is the index of the enclosing span, -1 for a
// root.
type span struct {
	name       string
	layer      string
	track      int
	start, end time.Duration
	parent     int
	op         int
	rebuilt    bool
}

// recorder holds the harness's own spans in memory until the run ends. It
// is private to the benchmark and never installed with obs.Enable, so the
// program's own instrumentation stays off in both the traced and the
// untraced run. A nil recorder records nothing.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() time.Duration {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch)
}

// begin opens a span and returns its index, or -1 on a nil recorder.
func (r *recorder) begin(layer, name string, track, parent, op int) int {
	if r == nil {
		return -1
	}
	start := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{name: name, layer: layer, track: track, start: start, end: -1, parent: parent, op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = end
	r.mu.Unlock()
}

// add records a finished span whose bounds are known from elsewhere: the
// stages a served reply reports in its timings.
func (r *recorder) add(layer, name string, track, parent, op int, start, end time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, layer: layer, track: track, start: start, end: end, parent: parent, op: op, rebuilt: true})
	r.mu.Unlock()
}

// snapshot returns a copy of the spans; every begin has been ended by the
// time a workload returns.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// coverage is the share of the region the root spans cover: the check that
// no stretch of the timed region goes unattributed.
func coverage(spans []span, region interval) float64 {
	var roots []interval
	for _, s := range spans {
		if s.parent == -1 {
			roots = append(roots, interval{s.start, s.end})
		}
	}
	if region.hi <= region.lo {
		return 0
	}
	return float64(covered(roots, region)) / float64(region.hi-region.lo)
}

// layerSelfSeconds sums each layer's self time: every span's duration minus
// the part its children cover.
func layerSelfSeconds(spans []span) map[string]float64 {
	children := make(map[int][]interval)
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	out := make(map[string]float64)
	for i, s := range spans {
		out[s.layer] += selfTime(interval{s.start, s.end}, children[i]).Seconds()
	}
	return out
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace_event JSON in the same
// shape internal/obs emits, checks the result with obs.ValidateTrace (what
// `parma tracecheck` runs) and returns the path.
func writeChromeTrace(dir, workload string, spans []span, trackNames []string) (string, error) {
	events := make([]chromeEvent, 0, len(spans)+len(trackNames))
	for tid, name := range trackNames {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Tid: tid, Args: map[string]any{"name": name}})
	}
	for i, s := range spans {
		args := map[string]any{"id": i, "op": s.op, "layer": s.layer}
		if s.parent >= 0 {
			args["parent"] = s.parent
		}
		if s.rebuilt {
			args["rebuilt"] = 1
		}
		events = append(events, chromeEvent{
			Name: s.name, Ph: "X", Tid: s.track,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if _, err := obs.ValidateTrace(data); err != nil {
		return "", fmt.Errorf("trace for %s does not validate: %w", workload, err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating %s: %w", dir, err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}

// Package obs is Parma's observability layer: hierarchical spans recorded
// into a striped append buffer, a registry of named counters, gauges, and
// histograms, and exporters for Chrome trace_event JSON (chrome://tracing /
// Perfetto), Prometheus-style text, and aligned summary tables. It also
// hosts the pprof and runtime hooks behind the CLI profiling flags.
//
// The package-level API routes through one globally installed *Recorder.
// When no recorder is installed (the default), every entry point reduces to
// an atomic pointer load and an early return, so instrumented hot paths —
// equation formation, chunk handout, message passing — cost nothing
// measurable in production and benchmark runs.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// def is the globally installed recorder; nil means disabled.
var def atomic.Pointer[Recorder]

// Enable installs r as the global recorder. Passing nil disables recording.
func Enable(r *Recorder) {
	if r == nil {
		def.Store(nil)
		return
	}
	def.Store(r)
}

// Disable uninstalls the global recorder.
func Disable() { def.Store(nil) }

// Enabled reports whether a global recorder is installed.
func Enabled() bool { return def.Load() != nil }

// Active returns the global recorder, or nil when disabled.
func Active() *Recorder { return def.Load() }

// AnonTrack marks a span with no explicit track: the trace exporter packs
// such spans into free lanes by time overlap.
const AnonTrack = -1

// eventShards stripes the span buffer to keep End cheap under the
// many-goroutine workloads (parallel workers, MPI ranks) it observes.
const eventShards = 16

// Attr is one span attribute: a numeric or string value under a key.
type Attr struct {
	Key string
	Str string
	Num float64
	num bool
}

// F builds a numeric attribute.
func F(key string, v float64) Attr { return Attr{Key: key, Num: v, num: true} }

// I builds an integer attribute.
func I(key string, v int) Attr { return Attr{Key: key, Num: float64(v), num: true} }

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Str: v} }

// Event is one completed span, timed relative to the recorder epoch. The
// trace fields are zero for untraced spans; for traced ones they name the
// request the span belongs to and its parent span, letting exporters and
// validators rebuild the request tree.
type Event struct {
	Name   string
	Track  int32
	Start  time.Duration
	Dur    time.Duration
	Attrs  []Attr
	Trace  TraceID
	Span   SpanID
	Parent SpanID
}

// eventShard is one stripe of the span buffer. Once the shard reaches its
// cap it becomes a ring: head marks the oldest event, which the next
// append overwrites. rollups counts every span ended into the shard, so
// an overwritten event still counts.
type eventShard struct {
	mu      sync.Mutex
	events  []Event
	head    int
	rollups map[string]*Rollup
}

// DefaultSpanCap bounds the buffered span count of a new recorder. A
// long-running process keeps at most this many events in memory; older
// events are overwritten ring-style and counted in the obs/spans_dropped
// counter. Rollups still count them.
const DefaultSpanCap = 1 << 16

// UntracedSpanCap is the span ring of a daemon that writes no trace file.
// Nothing reads its events (/metrics reads the rollups), and the garbage
// collector marks every retained event: with DefaultSpanCap of them, two
// GOMAXPROCS=1 parmad workers behind parma-router on 2 vCPUs served about
// a fifth fewer serve-mixed requests a second.
const UntracedSpanCap = 1 << 10

// Recorder collects spans and hosts a metrics registry. All methods are
// safe for concurrent use.
type Recorder struct {
	epoch  time.Time
	shards [eventShards]eventShard
	reg    *Registry

	// shardCap bounds each shard's event slice; 0 means unbounded. dropped
	// counts ring overwrites (it is the obs/spans_dropped counter).
	shardCap atomic.Int64
	dropped  *Counter

	trackMu    sync.Mutex
	trackNames map[int32]string
	nextTrack  atomic.Int32
}

// NewRecorder creates an empty recorder whose span clock starts now. The
// span buffer is bounded at DefaultSpanCap events; SetSpanCap adjusts it.
func NewRecorder() *Recorder {
	r := &Recorder{
		epoch:      time.Now(),
		reg:        NewRegistry(),
		trackNames: map[int32]string{},
	}
	for i := range r.shards {
		r.shards[i].rollups = map[string]*Rollup{}
	}
	r.dropped = r.reg.Counter("obs/spans_dropped")
	r.SetSpanCap(DefaultSpanCap)
	return r
}

// SetSpanCap bounds the total number of buffered span events. Once full,
// new events overwrite the oldest in each shard and the obs/spans_dropped
// counter increments. n <= 0 removes the bound. The cap applies to future
// appends; it does not shrink an already larger buffer. One trace's spans
// share one shard, so a single trace keeps at most n/eventShards of them.
func (r *Recorder) SetSpanCap(n int) {
	if n <= 0 {
		r.shardCap.Store(0)
		return
	}
	r.shardCap.Store(int64((n + eventShards - 1) / eventShards))
}

// Registry returns the recorder's metrics registry.
func (r *Recorder) Registry() *Registry { return r.reg }

// Epoch returns the instant span timestamps are relative to.
func (r *Recorder) Epoch() time.Time { return r.epoch }

// NewTrack allocates a named timeline track (one per worker, rank, or
// logical thread) and returns its id for StartOn.
func (r *Recorder) NewTrack(name string) int32 {
	id := r.nextTrack.Add(1) - 1
	r.trackMu.Lock()
	r.trackNames[id] = name
	r.trackMu.Unlock()
	return id
}

// TrackName returns the name given to NewTrack, or "" for unknown ids.
func (r *Recorder) TrackName(id int32) string {
	r.trackMu.Lock()
	defer r.trackMu.Unlock()
	return r.trackNames[id]
}

// Span is an open region of time. The zero Span (from a disabled recorder)
// is inert: End on it returns immediately. Traced spans (opened through
// the ctx-aware StartSpanCtx/StartSpanIn/StartOnTraced entry points) also
// carry their trace identity; the id fields are fixed-size arrays, so a
// Span never allocates.
type Span struct {
	r      *Recorder
	name   string
	track  int32
	start  time.Duration
	trace  TraceID
	id     SpanID
	parent SpanID
}

// Active reports whether the span will be recorded when ended.
func (s Span) Active() bool { return s.r != nil }

// StartSpan opens an anonymous-track span on the recorder.
func (r *Recorder) StartSpan(name string) Span { return r.StartOn(AnonTrack, name) }

// StartOn opens a span bound to an explicit track.
func (r *Recorder) StartOn(track int32, name string) Span {
	return Span{r: r, name: name, track: track, start: time.Since(r.epoch)}
}

// End closes the span, attaching the given attributes.
func (s Span) End(attrs ...Attr) {
	if s.r == nil {
		return
	}
	s.r.endSpan(s, attrs)
}

func (r *Recorder) endSpan(s Span, attrs []Attr) {
	ev := Event{
		Name:   s.name,
		Track:  s.track,
		Start:  s.start,
		Dur:    time.Since(r.epoch) - s.start,
		Trace:  s.trace,
		Span:   s.id,
		Parent: s.parent,
	}
	if len(attrs) > 0 {
		ev.Attrs = make([]Attr, len(attrs))
		copy(ev.Attrs, attrs)
	}
	bound := int(r.shardCap.Load())
	// A traced span goes to its trace's shard, so one request's spans share
	// one ring and leave it in the order they ended: children before their
	// parents, so an overwrite never orphans a child. Untraced spans spread
	// by start time.
	stripe := int(s.start)
	if !s.trace.IsZero() {
		stripe = int(s.trace[len(s.trace)-1])
	}
	shard := &r.shards[stripe&(eventShards-1)]
	dropped := false
	shard.mu.Lock()
	shard.rollup(s.name).add(Rollup{Count: 1, Total: ev.Dur, Max: ev.Dur})
	if bound > 0 && len(shard.events) >= bound {
		// Ring overwrite: replace the oldest buffered event in this shard.
		shard.events[shard.head] = ev
		shard.head = (shard.head + 1) % len(shard.events)
		dropped = true
	} else {
		shard.events = append(shard.events, ev)
	}
	shard.mu.Unlock()
	if dropped {
		r.dropped.Add(1)
	}
}

// Events returns every recorded span sorted by start time.
func (r *Recorder) Events() []Event {
	var out []Event
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		out = append(out, s.events...)
		s.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Dur > out[j].Dur // parents before their children
	})
	return out
}

// Rollup aggregates the spans sharing one name.
type Rollup struct {
	Name  string        `json:"name"`
	Count int           `json:"count"`
	Total time.Duration `json:"total_ns"`
	Max   time.Duration `json:"max_ns"`
}

// add folds b's spans into ro.
func (ro *Rollup) add(b Rollup) {
	ro.Count += b.Count
	ro.Total += b.Total
	ro.Max = max(ro.Max, b.Max)
}

// rollup returns the shard's rollup for name, creating it on first use.
// The caller holds s.mu.
func (s *eventShard) rollup(name string) *Rollup {
	ro := s.rollups[name]
	if ro == nil {
		ro = &Rollup{Name: name}
		s.rollups[name] = ro
	}
	return ro
}

// EventCount returns the number of events currently buffered (overwritten
// events are excluded).
func (r *Recorder) EventCount() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Rollups aggregates every ended span by name, overwritten ring events
// included, sorted by descending total time.
func (r *Recorder) Rollups() []Rollup {
	acc := map[string]*Rollup{}
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for name, ro := range s.rollups {
			a := acc[name]
			if a == nil {
				a = &Rollup{Name: name}
				acc[name] = a
			}
			a.add(*ro)
		}
		s.mu.Unlock()
	}
	out := make([]Rollup, 0, len(acc))
	for _, ro := range acc {
		out = append(out, *ro)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Package-level convenience entry points. Each costs one atomic load when
// recording is disabled.

// StartSpan opens an anonymous-track span on the global recorder.
func StartSpan(name string) Span {
	r := def.Load()
	if r == nil {
		return Span{}
	}
	return r.StartSpan(name)
}

// StartOn opens a span on an explicit track of the global recorder.
func StartOn(track int32, name string) Span {
	r := def.Load()
	if r == nil {
		return Span{}
	}
	return r.StartOn(track, name)
}

// NewTrack allocates a named track on the global recorder; AnonTrack when
// disabled.
func NewTrack(name string) int32 {
	r := def.Load()
	if r == nil {
		return AnonTrack
	}
	return r.NewTrack(name)
}

// Add increments the named global counter by n; no-op when disabled.
func Add(name string, n int64) {
	if r := def.Load(); r != nil {
		r.reg.Counter(name).Add(n)
	}
}

// SetGauge sets the named global gauge; no-op when disabled.
func SetGauge(name string, v float64) {
	if r := def.Load(); r != nil {
		r.reg.Gauge(name).Set(v)
	}
}

// Observe records v into the named global histogram; no-op when disabled.
func Observe(name string, v float64) {
	if r := def.Load(); r != nil {
		r.reg.Histogram(name).Observe(v)
	}
}

// GetCounter returns the named counter of the global registry, or nil when
// disabled. Counter methods are nil-safe, so hot paths may fetch once and
// increment unconditionally.
func GetCounter(name string) *Counter {
	r := def.Load()
	if r == nil {
		return nil
	}
	return r.reg.Counter(name)
}

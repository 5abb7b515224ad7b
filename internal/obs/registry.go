package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe so disabled call sites can hold a nil *Counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomically updated float64 value. Methods are nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last stored value (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets spans decades 1e-12..1e12: bucket i counts observations with
// floor(log10(v)) == i − histZero, clamped at the ends.
const (
	histBuckets = 25
	histZero    = 12
)

// Histogram is a fixed-bucket log10 histogram with atomic buckets and
// min/max/sum tracking. Methods are nil-safe.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 sum, CAS-updated
	minBits atomic.Uint64
	maxBits atomic.Uint64
	started atomic.Bool
}

func bucketOf(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return 0
	}
	b := int(math.Floor(math.Log10(v))) + histZero
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	if h.started.CompareAndSwap(false, true) {
		h.minBits.Store(math.Float64bits(v))
		h.maxBits.Store(math.Float64bits(v))
		return
	}
	for {
		old := h.minBits.Load()
		if math.Float64frombits(old) <= v || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if math.Float64frombits(old) >= v || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Min returns the smallest observation (0 with no observations).
func (h *Histogram) Min() float64 {
	if h == nil || !h.started.Load() {
		return 0
	}
	return math.Float64frombits(h.minBits.Load())
}

// Max returns the largest observation (0 with no observations).
func (h *Histogram) Max() float64 {
	if h == nil || !h.started.Load() {
		return 0
	}
	return math.Float64frombits(h.maxBits.Load())
}

// Quantile estimates the q-th quantile (0 < q < 1) from the log10 bucket
// counts: it finds the bucket where the cumulative count crosses q·n and
// interpolates log-linearly within that decade, clamped to the observed
// min/max. Decade-bucket resolution is coarse but monotone, which is all
// the /metrics summary lines need.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	rank := q * float64(n)
	cum := 0.0
	for b := 0; b < histBuckets; b++ {
		c := float64(h.buckets[b].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			lower := math.Pow(10, float64(b-histZero))
			frac := (rank - cum) / c
			v := lower * math.Pow(10, frac)
			if mn := h.Min(); v < mn {
				v = mn
			}
			if mx := h.Max(); v > mx {
				v = mx
			}
			return v
		}
		cum += c
	}
	return h.Max()
}

// Mean returns the average observation, or 0 with none.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / float64(n)
}

// Registry is a concurrency-safe get-or-create table of named metrics.
// Names use slash-separated components ("mpi/rank0/bytes_sent"); the
// Prometheus exporter sanitizes them on the way out.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// MetricKind distinguishes snapshot entries.
type MetricKind uint8

// Snapshot entry kinds.
const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

// MetricSnapshot is one metric's point-in-time state.
type MetricSnapshot struct {
	Name  string     `json:"name"`
	Kind  MetricKind `json:"kind"`
	Count int64      `json:"count"`           // counter value or histogram count
	Value float64    `json:"value,omitempty"` // gauge value, histogram sum
	Min   float64    `json:"min,omitempty"`
	Max   float64    `json:"max,omitempty"`
	P50   float64    `json:"p50,omitempty"` // histogram quantile estimates
	P90   float64    `json:"p90,omitempty"`
	P99   float64    `json:"p99,omitempty"`
}

// Snapshot returns every metric sorted by name (counters, then gauges,
// then histograms within equal names).
func (r *Registry) Snapshot() []MetricSnapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]MetricSnapshot, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out = append(out, MetricSnapshot{Name: name, Kind: KindCounter, Count: c.Value()})
	}
	for name, g := range r.gauges {
		out = append(out, MetricSnapshot{Name: name, Kind: KindGauge, Value: g.Value()})
	}
	for name, h := range r.histograms {
		out = append(out, MetricSnapshot{
			Name: name, Kind: KindHistogram,
			Count: h.Count(), Value: h.Sum(), Min: h.Min(), Max: h.Max(),
			P50: h.Quantile(0.5), P90: h.Quantile(0.9), P99: h.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

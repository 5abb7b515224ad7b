package experiments

// The reporting machinery behind the figures: a background memory sampler
// and exact-sample empirical distribution for the Figure-8 CDFs, and the
// aligned text/CSV table every driver returns.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"parma/internal/obs"
)

// MemSampler polls runtime heap usage on a fixed interval from a background
// goroutine, producing the samples behind memory-usage CDFs.
type MemSampler struct {
	interval time.Duration
	mu       sync.Mutex
	samples  []float64 // bytes in use per sample
	stop     chan struct{}
	done     chan struct{}
}

// NewMemSampler creates a sampler with the given poll interval (values
// below 100 µs are clamped up to bound overhead).
func NewMemSampler(interval time.Duration) *MemSampler {
	if interval < 100*time.Microsecond {
		interval = 100 * time.Microsecond
	}
	return &MemSampler{interval: interval}
}

// Start launches sampling; call Stop to end it.
func (m *MemSampler) Start() {
	m.stop = make(chan struct{})
	m.done = make(chan struct{})
	go func() {
		defer close(m.done)
		ticker := time.NewTicker(m.interval)
		defer ticker.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-ticker.C:
				m.record()
			}
		}
	}()
}

func (m *MemSampler) record() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mu.Lock()
	m.samples = append(m.samples, float64(ms.HeapInuse))
	m.mu.Unlock()
	obs.SetGauge("metrics/heap_inuse_bytes", float64(ms.HeapInuse))
}

// Stop halts sampling and returns the collected samples (bytes). At least
// one sample is always recorded.
func (m *MemSampler) Stop() []float64 {
	close(m.stop)
	<-m.done
	m.record() // final snapshot, guaranteeing non-empty output
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]float64, len(m.samples))
	copy(out, m.samples)
	return out
}

// CDF is an empirical cumulative distribution over samples.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied, then sorted).
func NewCDF(samples []float64) *CDF {
	cp := make([]float64, len(samples))
	copy(cp, samples)
	sort.Float64s(cp)
	return &CDF{sorted: cp}
}

// P returns the empirical P(X <= x) in [0, 1].
func (c *CDF) P(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	for idx < len(c.sorted) && c.sorted[idx] <= x {
		idx++
	}
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the q-th quantile, q in [0, 1].
func (c *CDF) Quantile(q float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return c.sorted[0]
	}
	if q >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(q * float64(len(c.sorted)-1))
	return c.sorted[idx]
}

// Max returns the largest sample (the peak of the distribution).
func (c *CDF) Max() float64 { return c.Quantile(1) }

// Len returns the sample count.
func (c *CDF) Len() int { return len(c.sorted) }

// Table renders aligned columns for terminal reporting.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table { return &Table{header: header} }

// Header returns the column headers.
func (t *Table) Header() []string { return t.header }

// Rows returns the formatted cell rows.
func (t *Table) Rows() [][]string { return t.rows }

// AddRow appends one row, formatting each cell with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.rows = append(t.rows, row)
}

// Write renders the table with aligned columns.
func (t *Table) Write(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if pad := widths[i] - len(cell); i < len(cells)-1 && pad > 0 {
				sb.WriteString(strings.Repeat(" ", pad))
			}
		}
		return sb.String()
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV renders the table as CSV (no quoting; cells must not contain
// commas — true for all numeric reporting here).
func (t *Table) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.header, ",")); err != nil {
		return err
	}
	for _, row := range t.rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

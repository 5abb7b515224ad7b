package obs

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Text exporters: a Prometheus-style dump for scraping or diffing across
// runs, and an aligned table for terminal reading. Both operate on a
// registry snapshot plus the recorder's span rollups.

// promName sanitizes a slash-separated metric name into the Prometheus
// charset: parma_mpi_rank0_bytes_sent.
func promName(name string) string {
	var sb strings.Builder
	sb.WriteString("parma_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			sb.WriteRune(r + ('a' - 'A'))
		default:
			sb.WriteRune('_')
		}
	}
	return sb.String()
}

// WritePrometheus emits every metric in Prometheus text exposition format,
// followed by per-span-name rollup counters and totals.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	for _, m := range r.reg.Snapshot() {
		name := promName(m.Name)
		switch m.Kind {
		case KindCounter:
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, m.Count); err != nil {
				return err
			}
		case KindGauge:
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %g\n", name, name, m.Value); err != nil {
				return err
			}
		case KindHistogram:
			if _, err := fmt.Fprintf(w, "# TYPE %s summary\n%s_count %d\n%s_sum %g\n%s_min %g\n%s_max %g\n",
				name, name, m.Count, name, m.Value, name, m.Min, name, m.Max); err != nil {
				return err
			}
			if m.Count > 0 {
				if _, err := fmt.Fprintf(w, "%s{quantile=\"0.5\"} %g\n%s{quantile=\"0.9\"} %g\n%s{quantile=\"0.99\"} %g\n",
					name, m.P50, name, m.P90, name, m.P99); err != nil {
					return err
				}
			}
		}
	}
	for _, ro := range r.Rollups() {
		name := promName("span/" + ro.Name)
		if _, err := fmt.Fprintf(w, "# TYPE %s summary\n%s_count %d\n%s_sum_ns %d\n",
			name, name, ro.Count, name, ro.Total.Nanoseconds()); err != nil {
			return err
		}
	}
	return nil
}

// WriteSummary renders an aligned human-readable report: span rollups by
// total time, then the metric snapshot.
func (r *Recorder) WriteSummary(w io.Writer) error {
	rollups := r.Rollups()
	rows := make([][]string, 0, len(rollups))
	for _, ro := range rollups {
		mean := time.Duration(0)
		if ro.Count > 0 {
			mean = ro.Total / time.Duration(ro.Count)
		}
		rows = append(rows, []string{
			ro.Name, fmt.Sprint(ro.Count),
			ro.Total.Round(time.Microsecond).String(),
			mean.Round(time.Microsecond).String(),
			ro.Max.Round(time.Microsecond).String(),
		})
	}
	if err := writeAligned(w, []string{"span", "count", "total", "mean", "max"}, rows); err != nil {
		return err
	}
	snap := r.reg.Snapshot()
	if len(snap) == 0 {
		return nil
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	rows = rows[:0]
	for _, m := range snap {
		var kind, val string
		switch m.Kind {
		case KindCounter:
			kind, val = "counter", fmt.Sprint(m.Count)
		case KindGauge:
			kind, val = "gauge", fmt.Sprintf("%.6g", m.Value)
		case KindHistogram:
			kind = "histogram"
			val = fmt.Sprintf("n=%d sum=%.6g min=%.6g max=%.6g", m.Count, m.Value, m.Min, m.Max)
		}
		rows = append(rows, []string{m.Name, kind, val})
	}
	return writeAligned(w, []string{"metric", "kind", "value"}, rows)
}

// writeAligned prints a padded column layout (the obs-local analogue of
// experiments.Table, which obs cannot import without a cycle).
func writeAligned(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
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
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	return nil
}

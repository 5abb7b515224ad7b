package experiments

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestMemSamplerCollects(t *testing.T) {
	s := NewMemSampler(time.Millisecond)
	s.Start()
	// Allocate noticeably while sampling.
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 1<<16))
		time.Sleep(200 * time.Microsecond)
	}
	samples := s.Stop()
	_ = sink
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	for _, v := range samples {
		if v <= 0 {
			t.Fatal("non-positive heap sample")
		}
	}
}

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{3, 1, 2, 4})
	if got := c.P(0); got != 0 {
		t.Fatalf("P(0) = %g", got)
	}
	if got := c.P(2); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("P(2) = %g, want 0.5", got)
	}
	if got := c.P(10); got != 1 {
		t.Fatalf("P(10) = %g", got)
	}
	if c.Max() != 4 || c.Quantile(0) != 1 {
		t.Fatalf("Max/Quantile(0) = %g/%g", c.Max(), c.Quantile(0))
	}
	if c.Len() != 4 {
		t.Fatalf("Len = %d", c.Len())
	}
	if got := c.Quantile(0.5); got != 2 && got != 3 {
		t.Fatalf("median = %g", got)
	}
}

func TestCDFMonotone(t *testing.T) {
	c := NewCDF([]float64{5, 1, 9, 7, 3, 3, 2})
	prev := -1.0
	for x := 0.0; x <= 10; x += 0.5 {
		p := c.P(x)
		if p < prev {
			t.Fatalf("CDF decreased at %g", x)
		}
		prev = p
	}
}

func TestCDFEmpty(t *testing.T) {
	c := NewCDF(nil)
	if c.P(1) != 0 || c.Quantile(0.5) != 0 {
		t.Fatal("empty CDF misbehaves")
	}
}

func TestTableAlignment(t *testing.T) {
	tbl := NewTable("n", "time", "ratio")
	tbl.AddRow(10, 1500*time.Microsecond, 1.2345678)
	tbl.AddRow(10000, time.Second, 0.5)
	var sb strings.Builder
	if err := tbl.Write(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "time") || !strings.Contains(lines[2], "1.5ms") {
		t.Fatalf("unexpected render:\n%s", out)
	}
	if !strings.Contains(lines[2], "1.235") {
		t.Fatalf("float not compacted:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := NewTable("a", "b")
	tbl.AddRow(1, 2.5)
	var sb strings.Builder
	if err := tbl.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "a,b\n1,2.5\n" {
		t.Fatalf("CSV = %q", sb.String())
	}
}

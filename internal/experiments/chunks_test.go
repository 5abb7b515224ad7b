package experiments

import (
	"strconv"
	"testing"
	"time"

	"parma/internal/parallel"
)

// TestChunkSweepTradeoff: under a profile with substantial per-chunk
// overhead, chunk=1 must be slower than a moderate chunk, and a chunk
// larger than the whole iteration space degenerates toward single-worker
// behaviour (bounded below by serial/1). The task costs come from the
// analytic term-count model, not from a wall-clock measurement, so the
// three simulated makespans — and the verdict — are the same on every run.
func TestChunkSweepTradeoff(t *testing.T) {
	p, err := BuildProblem(12, 14)
	if err != nil {
		t.Fatal(err)
	}
	// MeasureTasks supplies the per-task equation counts; its measured
	// costs are replaced. 40 ns per term is the order it reads.
	const perTerm = 40 * time.Nanosecond
	timing := MeasureTasks(p)
	timing.Total = 0
	for task := range timing.Cost {
		timing.Cost[task] = time.Duration(parallel.TaskCost(p, task)) * perTerm
		timing.Total += timing.Cost[task]
	}
	rows := chunkTable(timing, PythonProfile, 8, []int{1, 64, 1 << 30}).Rows()
	if len(rows) != 3 {
		t.Fatalf("rows: %v", rows)
	}
	parse := func(row []string) float64 {
		v, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	tiny, moderate, huge := parse(rows[0]), parse(rows[1]), parse(rows[2])
	if moderate >= tiny {
		t.Fatalf("moderate chunk (%g) not faster than chunk=1 (%g) despite handout overhead", moderate, tiny)
	}
	if moderate >= huge {
		t.Fatalf("moderate chunk (%g) not faster than one-giant-chunk (%g)", moderate, huge)
	}
}

// TestChunkSweepDefaults runs the measuring wrapper once; only the table's
// shape is asserted, the makespans are wall-clock.
func TestChunkSweepDefaults(t *testing.T) {
	tbl, err := ChunkSweep(ChunkSweepConfig{N: 8, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows()) != 7 || tbl.Header()[1] != "makespan_s" {
		t.Fatalf("header %v, %d rows", tbl.Header(), len(tbl.Rows()))
	}
}
